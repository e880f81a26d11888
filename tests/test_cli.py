"""End-to-end command-line behavior: report schema, values, and exit codes."""
import ast
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest

import hankelpert
import hankelpert.cli as cli
from hankelpert import dsl, fluid, hankel, jacobi, linstat, quadrature, specfun
from hankelpert.errors import PrecisionError

from gamma_oracle import log_hn_by_gamma

LN2 = math.log(2)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    return code, json.loads(out), err


def strip_timing(report):
    report = dict(report)
    report.pop("total_elapsed_s", None)
    report["rows"] = [{k: v for k, v in row.items() if k != "elapsed_s"}
                      for row in report["rows"]]
    return report


def test_exact_smallest_case(capsys):
    code, rep, _ = run_json(["exact", "--n", "1"], capsys)
    assert code == 0
    assert rep["schema_version"] == 2
    assert rep["tool"]["name"] == "hankelpert"
    assert rep["subcommand"] == "exact"
    assert rep["command"].startswith("hankelpert exact")
    row = rep["rows"][0]
    assert isinstance(row["elapsed_s"], float)
    for key in ("log_det_closed", "log_det_norm_product", "log_det_ldl"):
        assert abs(float(row[key]) - LN2) < 1e-15, key
    for key in ("diff_closed_norm", "diff_closed_ldl", "diff_norm_ldl"):
        assert abs(float(row[key])) < 1e-55, key


@pytest.mark.parametrize("alpha, beta", [("1/2", "3/2"), ("-2/3", "1/2"), ("1/3", "2")])
def test_exact_norm_product_matches_per_j_gamma_sum(capsys, alpha, beta):
    """The norm product from h_0 and the exact beta_j against the sum of the
    Gamma-form ln h_j, read from mpmath's loggamma, kept here as its oracle."""
    code, rep, _ = run_json(["exact", "--n", "1,12,60", f"--alpha={alpha}", f"--beta={beta}"],
                            capsys)
    assert code == 0
    jp = jacobi.JacobiParams(alpha, beta)
    for row in rep["rows"]:
        p = cli.Precision(row["digits"])
        with p.workdps():
            oracle = mpmath.fsum(log_hn_by_gamma(j, jp) for j in range(row["n"]))
            got = mpmath.mpf(row["log_det_norm_product"])
            assert abs(got - oracle) < mpmath.mpf(10) ** (8 - row["digits"]) * abs(oracle), row["n"]


def test_exact_sweep_and_asym_column(capsys):
    code, rep, _ = run_json(
        ["exact", "--n", "2,5,9", "--alpha", "1/2", "--beta", "3/2"], capsys)
    assert code == 0
    assert [row["n"] for row in rep["rows"]] == [2, 5, 9]
    gaps = [abs(float(row["asym_gap"])) for row in rep["rows"]]
    assert gaps[2] < gaps[0]
    assert "asymptotic_valid" not in rep["parameters"]
    for row in rep["rows"]:
        # route differences print 3 significant digits, determinants all of them
        for key in ("diff_closed_norm", "diff_closed_ldl", "diff_norm_ldl"):
            assert len(row[key].split("e")[0].replace(".", "").strip("0")) <= 3, row[key]
        assert len(row["log_det_closed"]) > 60


def test_exact_range_syntax(capsys):
    code, rep, _ = run_json(["exact", "--n", "2:10:4"], capsys)
    assert code == 0
    assert [row["n"] for row in rep["rows"]] == [2, 6, 10]


def test_exact_prints_asymptotic_below_half(capsys):
    """Every exponent > -1 gets the asymptotic: at (-3/4, 0) n asym_gap is 0.011671
    and 0.011695 at n = 50 and 100, the O(1/n) rate of exponents above -1/2."""
    code, rep, _ = run_json(["exact", "--n", "50,100", "--alpha=-3/4"], capsys)
    assert code == 0
    for row in rep["rows"]:
        assert row["log_det_asym"] is not None
        assert abs(row["n"] * float(row["asym_gap"]) / 0.01170 - 1) < 0.01, row["n"]


def test_compare_trivial_perturbation_closes_the_loop(capsys):
    code, rep, _ = run_json(["compare", "--n", "6", "--h", "1"], capsys)
    assert code == 0
    row = rep["rows"][0]
    # with h = 1 the prediction gap is exactly the bare-weight asymptotic gap
    assert abs(float(row["log_ratio"])) < 1e-50
    assert abs(float(row["pv_part"])) < 1e-50
    assert abs(float(row["log_mean"])) < 1e-50
    assert abs(float(row["method_diff"])) < float(row["method_tol"])


def test_compare_exponential_perturbation(capsys):
    code, rep, _ = run_json(["compare", "--n", "10", "--h", "exp(x)"], capsys)
    assert code == 0
    row = rep["rows"][0]
    assert abs(float(row["pv_estimate"]) - 0.1253136855509148) < 1e-10
    assert abs(float(row["pv_part"]) - 0.125) < 1e-40
    assert abs(float(row["edge_part"])) < 1e-50  # flat weight: no edge factor
    assert float(rep["parameters"]["h_min_sampled"]) > 0.36
    assert rep["parameters"]["h"] == "exp(x)"
    assert row["method_tol"] == "1.0e-47"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1 stage A: nothing bounds what the "
                   "Gauss rule misses of h, so both routes print one wrong value")
def test_compare_steep_entire_h_exits_3_or_prints_right_digits(capsys):
    """compare --n 3 --h "exp(1000*x)" exits 0 with log_det_ldl 20.97 below ln D_3 and a
    method_diff of 1.29e-60: both routes read one default Gauss rule, which misses most
    of h. The reference integrates by parts, mu_k = [x^k e^(tx)/t] from -1 to 1 minus
    (k/t) mu_{k-1} with t = 1000, at 200 digits, and takes the 3 x 3 determinant."""
    code, rep, err = run_json(["compare", "--n", "3", "--h", "exp(1000*x)"], capsys)
    if code == 3:
        return
    assert code == 0, err
    row = rep["rows"][0]
    with mpmath.workdps(200):
        t = mpmath.mpf(1000)
        mu = []
        for k in range(5):
            edges = (mpmath.exp(t) - (-1) ** k * mpmath.exp(-t)) / t
            mu.append(edges - k / t * mu[k - 1] if k else edges)
        exact = mpmath.log(mpmath.det(mpmath.matrix([mu[j:j + 3] for j in range(3)])))
        assert abs(mpmath.mpf(row["log_det_ldl"]) - exact) <= mpmath.mpf(row["method_tol"])


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls; returns the count list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


SWEEP = ["compare", "--n", "10:30:10", "--alpha=1/3", "--beta=2", "--h", "1+0.5*x^2"]


def test_compare_sweep_rows_match_single_size_runs(capsys, monkeypatch):
    """One moment pass, one factorization per route and one ln h expansion serve
    every row, within each row's method_tol. The counted names are read at call
    time, so they also see any expansion that the prediction would build."""
    rules = _counting(monkeypatch, quadrature, "gauss_jacobi_rule")
    factorizations = _counting(monkeypatch, hankel, "modified_chebyshev")
    expansions = _counting(monkeypatch, linstat, "cheb_log_expand")
    code, sweep, _ = run_json(SWEEP, capsys)
    assert code == 0
    assert (len(rules), len(expansions)) == (1, 1)
    assert [call[3] for call in factorizations] == [30, 30]
    assert rules[0][0] == 30 + 32  # the largest size's default order
    for row in sweep["rows"]:
        argv = SWEEP[:2] + [str(row["n"])] + SWEEP[3:]
        code, single, _ = run_json(argv, capsys)
        assert code == 0
        alone = single["rows"][0]
        tol = mpmath.mpf(row["method_tol"])
        assert alone["method_tol"] == row["method_tol"]
        for key in ("log_det_ldl", "log_det_recurrence"):
            assert abs(mpmath.mpf(row[key]) - mpmath.mpf(alone[key])) <= tol, (row["n"], key)


def test_compare_computes_each_lobatto_angle_once(capsys, monkeypatch):
    """The screen and the ln h expansion read their nodes from one table at one
    precision: every cos_sin call is at that precision, at most M/4 + 1 of them
    for its finest M = 256, and the screen calls no mpmath.cos."""
    quadrature._quarter.cache_clear()
    angles, screen_cosines, inside = [], [], []
    cos_sin, cos, screen = mpmath.cos_sin, mpmath.cos, dsl.validate_positive

    def counted_cos_sin(*args, **kwargs):
        angles.append(mpmath.mp.prec)
        return cos_sin(*args, **kwargs)

    def counted_cos(*args, **kwargs):
        if inside:
            screen_cosines.append(args)
        return cos(*args, **kwargs)

    def marked_screen(*args):
        inside.append(True)
        try:
            return screen(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(mpmath, "cos_sin", counted_cos_sin)
    monkeypatch.setattr(mpmath, "cos", counted_cos)
    monkeypatch.setattr(dsl, "validate_positive", marked_screen)
    code, _, _ = run_json(["compare", "--n", "10:30:10", "--h", "1+2*x^2"], capsys)
    assert code == 0
    assert screen_cosines == []
    assert len(set(angles)) == 1
    # the cosine tables of M = 2, 4, ..., 256 at that one precision
    assert quadrature._quarter.cache_info().currsize == 8
    assert len(angles) <= 256 // 4 + 1


@pytest.mark.parametrize("n, h, expansion_nodes, order", [
    ("10:30:10", "1+2*x^2", 257, 30 + 32),
    ("20", "1/(1.02 - x)", 257 + 256, 20 + 32)])
def test_compare_evaluates_h_once_per_lobatto_node(capsys, monkeypatch, n, h,
                                                   expansion_nodes, order):
    """One memo of h serves the screen's 257 nodes and the ln h expansion,
    which reads them up to degree 256 and evaluates only its new nodes past
    it (degree 512 for the pole); both sample at the precision of the
    Lobatto table. The moment pass (its rule's order) and h(+-1) of each
    row call h at other precisions."""
    calls, angles = [], []
    call, cos_sin = dsl.PerturbationFn.__call__, mpmath.cos_sin

    def counted_call(self, x):
        calls.append(mpmath.mp.prec)
        return call(self, x)

    def counted_cos_sin(*args, **kwargs):
        angles.append(mpmath.mp.prec)
        return cos_sin(*args, **kwargs)

    quadrature._quarter.cache_clear()
    monkeypatch.setattr(dsl.PerturbationFn, "__call__", counted_call)
    monkeypatch.setattr(mpmath, "cos_sin", counted_cos_sin)
    code, rep, _ = run_json(["compare", "--n", n, "--h", h], capsys)
    assert code == 0
    assert len(set(angles)) == 1
    assert calls.count(angles[0]) == expansion_nodes
    assert len(calls) == expansion_nodes + order + 2 * len(rep["rows"])


@pytest.mark.parametrize("kind", ["nonpositive beta", "zero denominator"])
def test_breakdown_at_k_fails_only_larger_rows(capsys, monkeypatch, kind):
    """The sweep's one factorization breaks down at index 15, the kernel stopping
    after a negative beta_15 or, for a zero denominator sigma_15,15, a zero one:
    rows 10 keep their values, rows 20 and 30 become error rows naming pivot 15."""
    _, clean, _ = run_json(SWEEP, capsys)
    original = hankel.modified_chebyshev

    def broken(nu, aux_alpha, aux_beta, count):
        betas = original(nu, aux_alpha, aux_beta, count)
        if count <= 15:
            return betas
        return betas[:15] + [-betas[15] if kind == "nonpositive beta" else 0 * betas[15]]

    monkeypatch.setattr(hankel, "modified_chebyshev", broken)
    code, rep, _ = run_json(SWEEP, capsys)
    assert code == 3
    assert strip_timing(rep)["rows"][0] == strip_timing(clean)["rows"][0]
    for row in rep["rows"][1:]:
        assert row["error_type"] == "PrecisionError"
        assert "pivot 15" in row["error"]


@pytest.mark.parametrize("build", ["expansion", "moments"])
def test_failed_shared_build_runs_once(capsys, monkeypatch, build):
    """A shared build that fails runs once, and every row reports its failure:
    sqrt(1+x) is not analytic at -1, so its ln h expansion fails at degree
    8192; a top-size moment pass that fails leaves both factorizations unrun."""
    if build == "expansion":
        builds = _counting(monkeypatch, linstat, "cheb_expand_auto")
        argv, error = ["compare", "--n", "2,3,4", "--h", "1+sqrt(1+x)"], "ResolutionError"
    else:
        def failing(jp, h, n, p, m=None):
            raise PrecisionError(f"moment pass failed at size {n}")

        monkeypatch.setattr(cli, "perturbed_moment_sequence", failing)
        builds = _counting(monkeypatch, cli, "perturbed_moment_sequence")
        factorizations = [_counting(monkeypatch, cli, name)
                          for name in ("hankel_logdet_ldl", "hankel_logdet_recurrence")]
        argv, error = ["compare", "--n", "2,3,4", "--h", "exp(x)"], "PrecisionError"
    code, rep, _ = run_json(argv, capsys)
    assert code == 3
    assert len(builds) == 1
    assert [row["error_type"] for row in rep["rows"]] == [error] * 3
    if build == "moments":
        assert factorizations == [[], []]
        assert [row["error"] for row in rep["rows"]] == ["moment pass failed at size 4"] * 3


def test_prediction_gap_prints_no_digit_finer_than_log_det(capsys):
    """prediction_gap, log_ratio and both pv estimates are log_det_ldl minus values
    printed no finer, and log_mean, boundary_part and mean_term_limit are terms
    so subtracted: none prints a digit finer than log_det_ldl's last."""
    code, rep, _ = run_json(["compare", "--n", "10:30:10", "--alpha=-1/2", "--beta=-1/2",
                             "--h", "exp(x)"], capsys)
    assert code == 0
    for row in rep["rows"]:
        _assert_resolved_by(row, "log_det_ldl", ("prediction_gap", "log_ratio", "pv_estimate",
                                                 "pv_estimate_edge_adjusted", "log_mean",
                                                 "boundary_part", "mean_term_limit"))
        # ln h = x is odd, so its mean c_0/2 and every multiple of it is 0
        assert [row[f] for f in ("log_mean", "boundary_part", "mean_term_limit")] == ["0.0"] * 3
    assert [row["prediction_gap"] for row in rep["rows"]][1:] == ["1.1e-60", "0.0"]
    # asym_gap is log_det_closed minus the asymptotic, printed no finer
    code, rep, _ = run_json(["exact", "--n", "1,12,50", "--alpha=1/2"], capsys)
    assert code == 0
    for row in rep["rows"]:
        _assert_resolved_by(row, "log_det_closed", ("asym_gap",))
    # log_det_closed = -1658.92... at 102 digits ends at 1e-98, and so does asym_gap
    assert len(rep["rows"][2]["asym_gap"].split(".")[1]) == 98


def _assert_resolved_by(row, reference, fields):
    """No field of ``fields`` prints a digit finer than the last printed digit of ``reference``."""
    ref = mpmath.mpf(row[reference])
    last = math.floor(mpmath.log10(abs(ref))) - row["digits"] + 1
    for field in fields:
        value = row[field]
        if value != "0.0":
            mantissa, _, exponent = value.partition("e")
            places = len(mantissa.split(".")[1]) if "." in mantissa else 0
            assert int(exponent or 0) - places >= last, (row["n"], field, value)


def test_closed_form_takes_seven_barnes_g_terms_and_the_constant_three(monkeypatch):
    """ln D_n telescopes from prod h_j into 7 ln G terms: no ln Gamma and no asymptotic
    constant. The constant takes ln G at 1/2, a + 1 and b + 1."""
    constant = jacobi.jacobi_asym_constant
    g_args = _counting(monkeypatch, jacobi, "log_barnes_g")
    gamma_args = _counting(monkeypatch, jacobi, "log_gamma")
    monkeypatch.setattr(jacobi, "jacobi_asym_constant", _Forbidden("jacobi_asym_constant"))
    jp, p = jacobi.JacobiParams("1/2", "3/2"), cli.Precision(40)
    jacobi.jacobi_logdet_exact(10, jp, p)
    # n + 1, n + a + 1, n + b + 1, n + s + 1, 2n + s + 1, a + 1, b + 1 at n = 10
    assert [z for z, _ in g_args] == [11, Fraction(23, 2), Fraction(25, 2), 13, 23,
                                      Fraction(3, 2), Fraction(5, 2)]
    g_args.clear()
    constant(jp, p)
    assert [z for z, _ in g_args] == [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]
    assert gamma_args == []


def test_exact_row_lifts_each_argument_once_at_one_precision(capsys, monkeypatch):
    """mu_0, the closed form and the asymptotic constant run their ln Gamma and ln G at
    one kernel precision and lift each argument once: at (1/2, 0) the closed form's
    n + 1, n + 3/2, 2n + 5/2, 3/2 and 1, the constant's 1/2 and mu_0's 5/2."""
    for memo in (specfun._lifted, specfun._series_gamma, specfun._series_g):
        memo.cache_clear()
    log = []
    _log_builds(monkeypatch, specfun._lifted, log)
    code, _, _ = run_json(["exact", "--n", "55", "--alpha", "1/2"], capsys)
    assert code == 0
    lifts = [(z, prec) for _, (z, prec, _), built in log if built]
    assert len(lifts) == 7
    assert len({z for z, _ in lifts}) == len(lifts)
    assert len({prec for _, prec in lifts}) == 1


def test_exact_row_sums_one_series_per_lift_point(capsys):
    """At (1/3, 2) and n = 45 the closed form, the asymptotic constant and mu_0 take ln Gamma
    and ln G at 9 arguments. Those below the lift point fall in 3 classes mod 1 (0, 1/3
    and 1/2) and 2n + s + 1 = 280/3 is above it, so they take 4 points: each point sums
    one Gamma and one G series, and zeta'(-1) reads the G series of the integer class."""
    for memo in (specfun._zeta_prime_minus_one, specfun._lifted, specfun._series_gamma,
                 specfun._series_g):
        memo.cache_clear()
    code, _, _ = run_json(["exact", "--n", "45", "--alpha", "1/3", "--beta", "2"], capsys)
    assert code == 0
    assert specfun._lifted.cache_info().misses == 9
    assert specfun._series_gamma.cache_info().misses == 4
    assert specfun._series_g.cache_info().misses == 4


@pytest.mark.parametrize("alpha, beta, order", [(10 ** 5, 0, 120), (1000, 1000, 200),
                                                (1000, 1000, 300), (10 ** 4, 10 ** 4, 100),
                                                (10 ** 4, 10 ** 4, 200)])
def test_compare_sized_up_rule_at_large_exponents_prints_right_digits(capsys, alpha, beta,
                                                                       order):
    """A Gauss rule of more than the default n + 32 nodes keeps ln D_8 of h = 1 + x^2/2
    right at large exponents. Its fixed-point width counts the bits by which |Q_k| falls
    below 1 at x = +-1 and at the weight's mean. Counted by a float run that underflows,
    at +-1 alone, (10^5, 0) at order 120 and (10^4, 10^4) at order 200 exit 3 and the
    other rows exit 0 with method_diff 0.0, 1.2e-28 to 4.0e-19 off. log_det_ldl must
    be within one unit of its last printed digit of ln D_8 from the exact rational
    minors."""
    code, rep, err = run_json(["compare", "--n", "8", f"--alpha={alpha}", f"--beta={beta}",
                               "--h", "1+x^2/2", "--quad-order", str(order)], capsys)
    assert code == 0, err
    text = rep["rows"][0]["log_det_ldl"]
    d8 = hankel.rational_hankel_minors(jacobi.JacobiParams(alpha, beta), 8,
                                       [1, 0, Fraction(1, 2)])[-1]
    with mpmath.workdps(120):
        exact = mpmath.log(d8.numerator) - mpmath.log(d8.denominator)
        assert abs(mpmath.mpf(text) - exact) <= mpmath.mpf(10) ** -len(text.split(".")[1])


def test_compare_degree_2048_expansion_prints_exact_constants(capsys, monkeypatch):
    """h = 1 + 400 x^2 needs the ln h expansion at degree 2048, and its constants are
    exact. With x = cos theta, h = 201 + 200 cos 2 theta = C |1 + q e^(2 i theta)|^2,
    q = (201 - sqrt 401) / 200, C = 201 / (1 + q^2), so ln h has mean ln C and
    c_{2j} = 2 (-1)^(j+1) q^j / j: pv_part = (1/8) sum k c_k^2 = -ln(1 - q^2) and
    log_mean = 4 ln C. pv_part must be within one unit of its last printed digit, and
    log_mean within the unit of log_det_ldl's last printed digit. h is a polynomial, so
    the default order-36 rule is exact, and both routes must be within the unit of
    their last printed digit of ln D_4 from the exact rational minors."""
    expansions = _counting(monkeypatch, quadrature, "cheb_expand")
    code, rep, err = run_json(["compare", "--n", "4", "--h", "1+400*x^2"], capsys)
    assert code == 0, err
    assert max(M for _, M, _ in expansions) == 2048
    row = rep["rows"][0]

    def unit(key):
        return mpmath.mpf(10) ** -len(row[key].split(".")[1])

    d4 = hankel.rational_hankel_minors(jacobi.JacobiParams(0, 0), 4, [1, 0, 400])[-1]
    with mpmath.workdps(120):
        q = (201 - mpmath.sqrt(401)) / 200
        ln_d4 = mpmath.log(d4.numerator) - mpmath.log(d4.denominator)
        for key, exact, tol in (("pv_part", -mpmath.log(1 - q ** 2), unit("pv_part")),
                                ("log_mean", 4 * mpmath.log(201 / (1 + q ** 2)),
                                 unit("log_det_ldl")),
                                ("log_det_ldl", ln_d4, unit("log_det_ldl")),
                                ("log_det_recurrence", ln_d4, unit("log_det_recurrence"))):
            assert abs(mpmath.mpf(row[key]) - exact) <= tol, key


@pytest.mark.parametrize("alpha, beta, n", [(60, 0, 20), (40, 0, 30), (60, 3, 30),
                                            (100, 3, 20), (60, 0, 40), (100, 0, 20),
                                            (200, 0, 60), (300, 0, 60), (400, 0, 60),
                                            (600, 0, 60), (1000, 0, 40), (400, 3, 40),
                                            (1000, 0, 60)])
def test_exact_large_exponents_print_right_digits(capsys, alpha, beta, n):
    """The factorization's guard covers the weight's pivot decay log10(mu_0 / h_{n-1}),
    which outgrows 0.7 n at large exponents (46 digits at (60, 0) with n = 40). Under
    a 0.7 n guard the first four rows exit 0 with up to 12 wrong LDL digits and the
    fifth and sixth exit 3. From alpha = 200 the guard also needs twice the growth of
    the monic P_{n-1} at x = 1: under decay + 2 alone the next six rows exit 0 with
    3-12 wrong LDL digits and the last exits 3. Every log_det_* must be within
    10^(1 - digits), relative, of ln D_n = n ln mu_0 + sum_{0<j<n} (n-j) ln beta_j from
    the exact rational mu_0 and beta_j."""
    code, rep, err = run_json(["exact", "--n", str(n), f"--alpha={alpha}", f"--beta={beta}"],
                              capsys)
    assert code == 0, err
    row = rep["rows"][0]
    jp = jacobi.JacobiParams(alpha, beta)
    _, betas = jacobi.jacobi_recurrence_table(n, jp)
    with mpmath.workdps(row["digits"] + 20):
        log = lambda q: mpmath.log(q.numerator) - mpmath.log(q.denominator)
        exact = n * log(jacobi.jacobi_moment_exact(0, jp))
        exact += mpmath.fsum((n - j) * log(b) for j, b in enumerate(betas) if j)
        tol = mpmath.mpf(10) ** (1 - row["digits"]) * abs(exact)
        for key in ("log_det_closed", "log_det_norm_product", "log_det_ldl"):
            assert abs(mpmath.mpf(row[key]) - exact) <= tol, key


class _Forbidden:
    """Stands in for an mpmath value or function that no run may read."""

    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self.name} was called")

    @property
    def _mpf_(self):
        raise AssertionError(f"{self.name} was read")


def test_runs_use_neither_mpmath_barnesg_nor_glaisher(capsys, monkeypatch):
    """ln Gamma and ln G come from the package's kernel, with tables built from scratch
    here: mpmath's loggamma and bernoulli rebuild a table at every new precision,
    its barnesg lifts with one Gamma call per step, and its Glaisher constant alone
    takes tens of ms in a fresh process. Before each run every memo and table is
    cleared, and the run must build every entry it reads: the Gamma coefficients at
    every kernel precision it lifts at, the G coefficients and zeta'(-1) at every one
    it sums a G series at, and the tangent numbers up to the last it reads. The third
    run reads only entries that the first, at the same exponents, size and precision,
    also reads, and fewer tangent numbers, so each clear that is left out fails here."""
    for target in (mpmath, mpmath.mp):
        for name in ("barnesg", "glaisher", "loggamma", "gamma", "bernoulli"):
            monkeypatch.setattr(target, name, _Forbidden(f"mpmath.{name}"))
    memos = (hankel._pivot_decay, specfun._zeta_prime_minus_one, specfun._gamma_coefficients,
             specfun._tail_coefficients, specfun._half_log_2pi, specfun._lifted,
             specfun._series_gamma, specfun._series_g)
    log = []
    for memo in memos:
        _log_builds(monkeypatch, memo, log)
    tangents = _counting(monkeypatch, specfun, "_tangent_number")
    for argv in (["compare", "--n", "10", "--alpha", "1/2", "--beta", "3/2", "--h", "exp(x)"],
                 ["exact", "--n", "12", "--alpha", "1/3", "--beta", "2"],
                 ["exact", "--n", "10", "--alpha", "1/2", "--beta", "3/2"]):
        monkeypatch.setattr(specfun, "_TANGENT", [])
        monkeypatch.setattr(specfun, "_PASSES", [])
        for memo in memos:
            memo.cache_clear()
        log.clear()
        tangents.clear()
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)
        read = {(name, args) for name, args, _ in log}
        built = {(name, args) for name, args, fresh in log if fresh}
        assert read == built, (argv, sorted(read - built, key=str)[:3])

        def precisions(memo, index):
            return {args[index] for name, args in built if name == memo}

        gamma = precisions("_gamma_coefficients", 0)
        assert gamma == precisions("_series_gamma", 1) == precisions("_lifted", 1), argv
        tail = precisions("_tail_coefficients", 0)
        assert tail == precisions("_zeta_prime_minus_one", 0) == precisions("_series_g", 1), argv
        assert len(specfun._TANGENT) == max(k for (k,) in tangents), argv


def _log_builds(monkeypatch, memo, log):
    """Rebind the memoized ``memo`` in every package module that binds it to a wrapper
    logging (name, args, built) per call, built when the call missed the cache."""
    def logged(*args):
        misses = memo.cache_info().misses
        value = memo(*args)
        log.append((memo.__name__, args, memo.cache_info().misses > misses))
        return value

    for module in (cli, hankel, jacobi, linstat, quadrature, specfun):
        for name, value in list(vars(module).items()):
            if value is memo:
                monkeypatch.setattr(module, name, logged)


def test_compare_gap_falls_as_one_over_n_below_half(capsys):
    """At (-3/4, 0) with h = e^x, n prediction_gap is 0.1315 and 0.1302 at n = 20 and 40:
    the prediction holds below -1/2 at the O(1/n) rate it has above."""
    code, rep, _ = run_json(["compare", "--n", "20,40", "--alpha=-3/4", "--h", "exp(x)",
                             "--digits", "40", "--quad-order", "120"], capsys)
    assert code == 0
    gaps = [float(row["prediction_gap"]) for row in rep["rows"]]
    assert 0.45 <= gaps[1] / gaps[0] <= 0.55
    assert abs(40 * gaps[1] / (20 * gaps[0]) - 1) < 0.02


def test_compare_ln_h_degree_is_always_measured(capsys):
    code, out, _ = run(["compare", "--n", "10", "--h", "exp(x)", "--cheb-m", "8"], capsys)
    assert code == 2
    assert out == ""
    code, rep, _ = run_json(["compare", "--n", "10", "--h", "exp(x)"], capsys)
    assert code == 0
    assert "cheb_m" not in rep["parameters"]


def test_compare_quad_order_too_small_for_largest_size(capsys):
    code, out, err = run(["compare", "--n", "10:30:10", "--h", "exp(x)",
                          "--quad-order", "15"], capsys)
    assert code == 2
    assert out == ""
    assert "rule order 15 cannot resolve moments for size 30" in err


@pytest.mark.parametrize("argv, message", [
    (["compare", "--n", "10", "--h", "exp(x)", "--quad-order", "12"],
     "rule order 12 cannot resolve moments for size 10: the minimum is 42"),
], ids=["compare"])
def test_quad_order_below_default_exits_2(capsys, argv, message):
    # order 12 leaves exp(x) at n = 10 off by 2.1e-5, which method_diff cannot
    # see: both routes read the same moments
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert message in err


def test_compare_heine_columns_for_small_sizes(capsys):
    for argv in (["--n", "2", "--alpha", "1/2", "--h", "1 + x^2/2"],
                 ["--n", "1,2,3", "--alpha", "1/2", "--h", "exp(x)"]):
        code, rep, _ = run_json(["compare", *argv, "--heine"], capsys)
        assert code == 0
        for row in rep["rows"]:
            assert float(row["heine_diff"]) < float(row["heine_tol"])
            assert float(row["heine_average"]) > 0
    code, rep, _ = run_json(["compare", "--n", "4", "--h", "exp(x)", "--heine"], capsys)
    assert code == 0
    row = rep["rows"][0]
    assert (row["heine_average"], row["heine_diff"], row["heine_tol"]) == (None, None, None)


def test_fluid_shifted_band_value(capsys):
    code, rep, _ = run_json(["fluid", "--n", "1"], capsys)
    assert code == 0
    row = rep["rows"][0]
    assert abs(float(row["a_n_shifted"]) + 0.25) < 1e-40
    assert abs(float(row["b_n_shifted"]) - 0.25) < 1e-40
    assert float(row["a_n"]) == -1.0 and float(row["b_n"]) == 1.0


def test_fluid_deviation_columns(capsys):
    code, rep, _ = run_json(["fluid", "--n", "100"], capsys)
    row = rep["rows"][0]
    assert abs(float(row["n2_beta_dev"]) + 0.0625015625976) < 1e-9

    code, rep, _ = run_json(["fluid", "--n", "100", "--alpha", "1"], capsys)
    row = rep["rows"][0]
    assert abs(float(row["n3_alpha_dev"]) + 0.2438607150508) < 1e-9


def test_density_grid_and_mass(capsys):
    code, rep, _ = run_json(
        ["density", "--n", "5", "--alpha", "1/2", "--beta", "1", "--points", "11"],
        capsys)
    assert code == 0
    assert len(rep["rows"]) == 11
    assert float(rep["parameters"]["mass_rel_err"]) < 1e-10
    xs = [float(r["x"]) for r in rep["rows"]]
    assert xs == sorted(xs)
    assert all(float(r["sigma"]) >= 0 for r in rep["rows"])
    assert float(rep["rows"][0]["sigma"]) == 0.0  # band edge


@pytest.mark.parametrize("argv, ends", [
    (["--n", "20", "--points", "5"], ["+inf", "+inf"]),
    (["--n", "3", "--beta", "1", "--points", "3"], ["0.0", "+inf"]),
], ids=["both-ends-at-one", "one-end-inside"])
def test_density_is_unbounded_at_a_band_end_on_plus_minus_one(capsys, argv, ends):
    """With exponent 0 at x = +-1 the band reaches it and sigma grows like
    1/sqrt(1 - x^2) there; a band end inside (-1, 1) keeps sigma = 0."""
    code, rep, _ = run_json(["density", *argv], capsys)
    assert code == 0
    rows = rep["rows"]
    assert [rows[0]["sigma"], rows[-1]["sigma"]] == ends
    if ends == ["+inf", "+inf"]:
        # sigma = n / (pi sqrt(1 - x^2)) on [-1, 1]: 20/pi at the centre
        with mpmath.workdps(72):
            assert rows[2]["sigma"] == mpmath.nstr(20 / mpmath.pi, 64)


@pytest.mark.parametrize("argv", [
    ["--n", "20", "--points", "5"],
    ["--n", "7", "--alpha", "2/3", "--beta", "2/3", "--points", "21"]])
def test_density_grid_prints_the_centre_of_a_symmetric_band_as_zero(capsys, argv):
    code, rep, _ = run_json(["density", *argv], capsys)
    assert code == 0
    assert rep["rows"][len(rep["rows"]) // 2]["x"] == "0.0"


@pytest.mark.parametrize("exponents", [["--alpha=-1/2", "--beta", "1/3"], ["--beta=-3/5"]])
def test_density_refuses_negative_exponents(capsys, monkeypatch, exponents):
    """With a negative exponent sigma integrates to n + min(alpha, 0) + min(beta, 0),
    not n (1.5 at n = 2, alpha = -1/2), so the run stops before its mass integral."""
    monkeypatch.setattr(fluid, "band_integral", lambda *args: pytest.fail("integral ran"))
    code, out, err = run(["density", "--n", "2", *exponents, "--points", "3"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: density needs alpha, beta >= 0: otherwise sigma "
                          "integrates to n + min(alpha, 0) + min(beta, 0), not n")


@pytest.mark.parametrize("exponent, total", [("-0.9", "-9/5"), ("-1/2", "-1")])
def test_fluid_refuses_a_band_without_mass(capsys, exponent, total):
    """n + alpha + beta <= 0 leaves the band complex (-9/5) or empty (-1): exit 2, no traceback."""
    code, out, err = run(["fluid", "--n", "1", f"--alpha={exponent}", f"--beta={exponent}"],
                         capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: the band needs n + alpha + beta > 0, "
                   f"got n = 1, alpha + beta = {total}\n")


def test_fluid_sweep_keeps_the_sizes_inside_the_domain(capsys):
    """A size without a band becomes an error row; the valid size still runs,
    and the run exits 2."""
    argv = ["fluid", "--n", "1,5", "--alpha=-0.9", "--beta=-0.9"]
    code, rep, err = run_json(argv, capsys)
    assert code == 2
    assert err == ""
    assert rep["rows"][0] == {
        "n": 1, "digits": 64, "error_type": "DomainError",
        "error": "the band needs n + alpha + beta > 0, got n = 1, alpha + beta = -9/5"}
    _, single, _ = run_json(["fluid", "--n", "5", "--alpha=-0.9", "--beta=-0.9"], capsys)
    assert strip_timing(rep)["rows"][1] == strip_timing(single)["rows"][0]


@pytest.mark.parametrize("argv", [
    ["compare", "--n", "1,2", "--heine"],
], ids=["compare"])
def test_exit_3_when_ratio_misses_ensemble_average(capsys, argv):
    # the shared order-(largest n + 32) rule leaves the pole at 1.05 unresolved by ~1e-10,
    # far above the 1e-44 bound the run prints
    code, rep, _ = run_json(
        argv + ["--alpha", "2/3", "--beta=-1/2", "--h", "1/(1.05-x)"], capsys)
    assert code == 3
    for row in rep["rows"]:
        assert row["error_type"] == "PrecisionError"
        assert "differ by " in row["error"]
        assert "tol 1.0e-44" in row["error"]


def _fresh(probe: str) -> str:
    """What ``probe`` prints in a fresh interpreter that imports the package from source."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    # src first, then whatever the caller's PYTHONPATH holds (mpmath, say)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def _loaded_by_cli_import(packages) -> str:
    """The modules of ``packages`` that a fresh ``import hankelpert.cli`` loads, as printed."""
    return _fresh("import sys, hankelpert.cli; print(sorted(m for m in sys.modules "
                  f"if m.split('.')[0] in {tuple(packages)!r}))")


LAZY = ("csv", "hankelpert.dsl", "hankelpert.fluid", "hankelpert.linstat",
        "hankelpert.quadrature")


@pytest.mark.parametrize("argv, loaded", [
    (["exact", "--n", "3"], []),
    (["exact", "--n", "3", "--format", "csv"], ["csv"]),
    (["fluid", "--n", "5"], ["hankelpert.fluid"]),
    (["compare", "--n", "3", "--h", "exp(x)"],
     ["hankelpert.dsl", "hankelpert.linstat", "hankelpert.quadrature"]),
], ids=["exact", "exact-csv", "fluid", "compare"])
def test_each_subcommand_loads_only_the_modules_it_runs(argv, loaded):
    """A fresh ``import hankelpert.cli`` loads none of ``LAZY``; running ``argv``
    then loads exactly ``loaded`` of them."""
    probe = ("import contextlib, io, json, sys, hankelpert.cli as cli\n"
             f"lazy = {LAZY!r}\n"
             "at_import = [m for m in lazy if m in sys.modules]\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = cli.main({argv!r})\n"
             "print(json.dumps([at_import, code, [m for m in lazy if m in sys.modules]]))")
    assert json.loads(_fresh(probe)) == [[], 0, loaded]


def _defining_modules() -> dict:
    """Each name defined at the top level of a package module, mapped to that module."""
    defined = {}
    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(path.stem)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined.setdefault(target.id, []).append(path.stem)
    return defined


def test_package_exports_load_their_module_on_first_access():
    """A fresh ``import hankelpert`` loads no module of the package and no mpmath;
    each exported name is then the object its defining module binds, and
    ``dir`` lists every export."""
    defined = _defining_modules()
    home = {name: defined[name] for name in hankelpert.__all__ if name != "__version__"}
    assert all(len(modules) == 1 for modules in home.values()), home
    probe = ("import importlib, json, sys, hankelpert\n"
             "loaded = sorted(m for m in sys.modules if m.startswith(('hankelpert.', 'mpmath')))\n"
             "listed = set(dir(hankelpert))\n"
             f"home = {home!r}\n"
             "moved = [name for name, (module, ) in home.items() if getattr(hankelpert, name)"
             " is not getattr(importlib.import_module('hankelpert.' + module), name)]\n"
             "print(json.dumps([loaded, sorted(set(hankelpert.__all__) - listed), moved]))")
    assert json.loads(_fresh(probe)) == [[], [], []]
    with pytest.raises(AttributeError, match="'no_such_name'"):
        hankelpert.no_such_name


def test_cli_import_loads_no_scipy_or_numpy():
    assert _loaded_by_cli_import(("scipy", "numpy")) == "[]"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Both cost start-up time on every run: the records are plain tuples and slots classes."""
    assert _loaded_by_cli_import(("dataclasses", "inspect")) == "[]"


def test_csv_output(capsys):
    code, out, _ = run(["fluid", "--n", "2,3", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert any("schema" in ln for ln in meta)
    rows = list(csv.DictReader(io.StringIO("\n".join(data))))
    assert len(rows) == 2
    assert rows[0]["n"] == "2"


def test_csv_header_lists_each_field_once_in_order_of_first_appearance(capsys):
    """An error row first: its error fields come before the value fields of the next row."""
    code, out, _ = run(["fluid", "--n", "1,5", "--alpha=-0.9", "--beta=-0.9", "--format", "csv"],
                       capsys)
    assert code == 2
    header = next(ln for ln in out.splitlines() if not ln.startswith("#"))
    assert header == ("n,digits,error,error_type,a_n,b_n,a_n_shifted,b_n_shifted,alpha_n,"
                      "beta_n,alpha_tilde,beta_tilde,n3_alpha_dev,n2_beta_dev,n2_one_plus_a,"
                      "n2_one_minus_b,elapsed_s")


def test_reports_are_deterministic(capsys):
    argv = ["compare", "--n", "5", "--alpha", "1/2", "--h", "1 + x^2/2"]
    _, rep1, _ = run_json(argv, capsys)
    _, rep2, _ = run_json(argv, capsys)
    assert strip_timing(rep1) == strip_timing(rep2)


#: Reports pinned in data/reports.json. A change that moves a printed digit
#: regenerates the file with ``PYTHONPATH=src python tests/test_cli.py`` and
#: lists the fields that moved.
PINNED_REPORTS = pathlib.Path(__file__).resolve().parent / "data" / "reports.json"
PINNED_ARGV = (
    ["exact", "--n", "1,12", "--alpha", "1/2", "--beta", "3/2"],
    ["exact", "--n", "5", "--alpha=-2/3", "--beta", "1/2"],
    ["compare", "--n", "10:20:10", "--alpha=-1/2", "--beta=-1/2", "--h", "exp(x)"],
    ["compare", "--n", "2,3", "--alpha", "1/3", "--beta", "2", "--h", "1 + x^2/2", "--heine"],
    ["fluid", "--n", "5,50", "--alpha", "1", "--beta", "2"],
    ["density", "--n", "20", "--alpha", "1/2", "--beta", "1", "--points", "9"],
)


def pinned_report(argv) -> dict:
    """Exit code and report of one run, without its timing fields."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report = strip_timing(json.loads(out.getvalue()))
    report["parameters"].pop("elapsed_s", None)
    return {"argv": argv, "exit": code, "report": report}


def _differences(expected, got, where=""):
    """Paths of the fields in which two JSON values differ."""
    if isinstance(expected, dict) and isinstance(got, dict):
        return [d for key in {**expected, **got}
                for d in _differences(expected.get(key), got.get(key), f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(got, list) and len(expected) == len(got):
        return [d for i, (e, g) in enumerate(zip(expected, got))
                for d in _differences(e, g, f"{where}[{i}]")]
    return [] if expected == got else [f"{where}: {expected!r} -> {got!r}"]


def test_reports_match_pinned_reports():
    pinned = json.loads(PINNED_REPORTS.read_text())
    assert [entry["argv"] for entry in pinned] == list(PINNED_ARGV)
    moved = [f"{shlex.join(entry['argv'])}: {d}" for entry in pinned
             for d in _differences(entry, pinned_report(entry["argv"]))]
    assert not moved, "reports moved from data/reports.json:\n" + "\n".join(moved)


@pytest.mark.parametrize("subcommand, default", [
    ("exact", "size-based policy"), ("compare", "size-based policy"),
    ("fluid", "64"), ("density", "64")])
def test_digits_help_names_the_default(capsys, subcommand, default):
    """--digits help states the precision each subcommand runs at without it."""
    code, out, _ = run([subcommand, "--help"], capsys)
    assert code == 0
    help_text = " ".join(out.split())
    assert f"--digits DIGITS working precision in digits (default: {default})" in help_text


def test_digits_below_the_default_are_right_and_silent(capsys):
    """The conditioning guard is added on top of any --digits, so a run below the
    size-based default prints that many right digits and writes no warning."""
    code, rep, err = run_json(["exact", "--n", "40", "--digits", "32"], capsys)
    assert code == 0 and err == ""
    assert rep["rows"][0]["log_det_ldl"] == rep["rows"][0]["log_det_closed"]
    argv = ["compare", "--n", "60", "--alpha=1/2", "--h", "exp(x)", "--digits"]
    code, low, err = run_json([*argv, "64"], capsys)
    assert code == 0 and err == ""
    code, high, err = run_json([*argv, "116"], capsys)
    assert code == 0 and err == ""
    with mpmath.workdps(130):
        rounded = mpmath.nstr(mpmath.mpf(high["rows"][0]["log_det_ldl"]), 64)
    assert low["rows"][0]["log_det_ldl"] == rounded


@pytest.mark.parametrize("option, text", [("--alpha", "1_0"), ("--beta", "0.5_0"),
                                          ("--alpha", "1e1_0")])
def test_number_text_with_an_underscore_is_refused(capsys, option, text):
    """Fraction reads '1_0' as 10 from Python 3.11 and refuses it on 3.10; every
    version refuses it here, as the --h grammar does."""
    code, out, err = run(["exact", "--n", "3", option, text], capsys)
    assert code == 2
    assert out == ""
    assert "must be a rational number" in err


@pytest.mark.parametrize("argv", [["exact"], ["compare", "--h", "exp(x)"],
                                  ["compare", "--h", "2*(1-x"]])
def test_digits_below_the_floor_get_the_error_without_the_warning(capsys, argv):
    code, out, err = run([*argv, "--n", "3", "--digits", "31"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: decimal_digits must be >= 32, got 31\n"


def test_exit_2_on_syntax_error(capsys):
    code, out, err = run(["compare", "--n", "4", "--h", "2*(1-x"], capsys)
    assert code == 2
    assert "offset 6" in err


def test_huge_constant_power_runs_in_seconds(capsys):
    """A constant power too large to expand exactly is rounded at working precision."""
    started = time.perf_counter()
    _, one, _ = run_json(["compare", "--n", "2", "--h", "1"], capsys)
    for power in ("3^999999", "3.0^999999"):
        code, rep, _ = run_json(["compare", "--n", "2", "--h", f"1+0*{power}"], capsys)
        assert code == 0
        assert strip_timing(rep)["rows"] == strip_timing(one)["rows"]
    code, out, err = run(["compare", "--n", "2", "--h", "x^(2^(3^99999999))"], capsys)
    assert code == 2
    assert "exponent must be a rational constant" in err
    assert time.perf_counter() - started < 20


LIMIT = sys.get_int_max_str_digits()
TOO_MANY_DIGITS = f"needs more than {LIMIT} digits, Python's limit for integer text"


@pytest.mark.parametrize("argv, error", [
    (["exact", "--alpha", "1e9999999"], f"number '1e9999999' {TOO_MANY_DIGITS}"),
    (["exact", "--alpha", "1e-9999999"], f"number '1e-9999999' {TOO_MANY_DIGITS}"),
    (["compare", "--h=" + "9" * 5000 + "+x^2"],
     f"number '{'9' * 20}...' {TOO_MANY_DIGITS} (at offset 0, expected one of n/a)"),
    (["compare", "--h=1." + "0" * 5000 + "1+x^2"],
     f"number '1.{'0' * 18}...' {TOO_MANY_DIGITS} (at offset 0, expected one of n/a)"),
    (["compare", "--h=" + "(" * 3000 + "x" + ")" * 3000],
     "expression nests deeper than 300 levels (at offset 100, expected one of n/a)"),
    (["compare", "--h=" + "-" * 3000 + "x"],
     "expression nests deeper than 300 levels (at offset 300, expected one of n/a)"),
    (["compare", "--h=1" + "+x" * 2999],
     "expression nests deeper than 300 levels (at offset 601, expected one of n/a)"),
], ids=["huge-exponent", "tiny-exponent", "long-integer", "long-decimal", "parentheses",
        "minus-signs", "sum"])
def test_exit_2_on_oversized_or_over_deep_input(capsys, argv, error):
    """Refused before any Fraction is built or any recursion runs deep: at once,
    with one error line and no traceback."""
    started = time.perf_counter()
    code, out, err = run([*argv, "--n", "2"], capsys)
    assert time.perf_counter() - started < 5
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("h", [
    "(" * 99 + "2+x" + ")" * 99, "sqrt(" * 99 + "2+x" + ")" * 99, "2+" + "-" * 298 + "x",
    "300" + "+x" * 299, "(2+x)" + "^1" * 300],
    ids=["parentheses", "calls", "minus-signs", "sum", "carets"])
def test_expressions_at_the_nesting_bound_run(capsys, h):
    """The deepest inputs the parser accepts parse, print and evaluate inside
    the default recursion limit, under the test runner's frames too."""
    code, _, err = run(["compare", "--n", "2", f"--h={h}"], capsys)
    assert (code, err) == (0, "")


def test_negative_fraction_exponent_as_separate_token(capsys):
    # argparse alone reads a lone "-9/10" as an unknown option
    code, spaced, _ = run_json(["exact", "--n", "3", "--alpha", "-9/10", "--beta", "5"], capsys)
    assert code == 0
    assert spaced["command"] == "hankelpert exact --n 3 --alpha -9/10 --beta 5"
    _, joined, _ = run_json(["exact", "--n", "3", "--alpha=-9/10", "--beta", "5"], capsys)
    assert strip_timing(spaced)["rows"] == strip_timing(joined)["rows"]
    assert spaced["parameters"] == joined["parameters"]


def test_negative_h_as_separate_token(capsys):
    # argparse alone reads a lone "-x^2+2" as an unknown option
    code, spaced, err = run_json(["compare", "--n", "2", "--h", "-x^2+2"], capsys)
    assert (code, err) == (0, "")
    assert spaced["command"] == "hankelpert compare --n 2 --h '-x^2+2'"
    _, joined, _ = run_json(["compare", "--n", "2", "--h=-x^2+2"], capsys)
    assert strip_timing(spaced)["rows"] == strip_timing(joined)["rows"]
    assert spaced["parameters"] == joined["parameters"]


def test_option_like_exponent_gets_the_exponent_error(capsys):
    """A value with one leading minus after --alpha is read as alpha, so
    '--alpha -h' names alpha instead of ending in argparse's usage error."""
    code, out, err = run(["exact", "--n", "3", "--alpha", "-h"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: alpha must be a rational number (a decimal string "
                   "for an irrational value), got '-h'\n")


def test_exit_2_on_bad_parameters(capsys):
    code, _, err = run(["exact", "--n", "4", "--alpha", "-2"], capsys)
    assert code == 2
    code, _, err = run(["compare", "--n", "4", "--alpha", "-1", "--h", "1"], capsys)
    assert code == 2
    code, _, err = run(["exact", "--n", "0"], capsys)
    assert code == 2


@pytest.mark.parametrize("sizes", ["a:5", "1:5:x", "1:3:"])
def test_exit_2_on_malformed_size_range(capsys, sizes):
    code, out, err = run(["exact", "--n", sizes], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, error", [
    (["exact", "--n", "1:2:3:4"], "range must be start:stop[:step], got '1:2:3:4'"),
    (["exact", "--n", "5:1"], "empty range '5:1'"),
    (["exact", "--n", "1:5:0"], "range step must be >= 1, got 0"),
    (["exact", "--n", "1,x"], "sizes must be integers, got '1,x'"),
    (["exact", "--n", ","], "no sizes given"),
    (["density", "--n", "1,2"], "density takes a single size, e.g. --n 20"),
    (["density", "--n", "5", "--points", "2"], "need at least 3 grid points, got 2"),
])
def test_exit_2_names_the_refused_sizes_or_grid(capsys, argv, error):
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_exit_4_when_h_dips_between_screening_points(capsys):
    """The 257-point screen passes; node 511 of the degree-1024 ln h expansion does not."""
    code, out, err = run(["compare", "--n", "10", "--h", "(x-0.0015)^2-0.0000001"], capsys)
    assert code == 4
    assert out == ""
    assert err == ("error: perturbation rejected: "
                   "h(0.0015339802) = -9.88453e-8 is not positive\n")


def test_heine_builds_each_gauss_rule_once(capsys, monkeypatch):
    """Rows of one order and precision share a rule: one build per order."""
    quadrature.gauss_jacobi_rule.cache_clear()
    builds = _counting(monkeypatch, quadrature, "_seed_nodes")
    code, _, _ = run_json(["compare", "--n", "1,2,3", "--alpha", "1/2", "--h", "exp(x)",
                           "--heine"], capsys)
    assert code == 0
    assert [len(two_alpha) for two_alpha, _ in builds] == [35, 72]


def test_closed_stdout_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    # src first, then whatever the caller's PYTHONPATH holds (mpmath, say)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    try:
        proc = subprocess.run([sys.executable, "-m", "hankelpert", "exact", "--n", "3"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_exit_4_on_sign_changing_perturbation(capsys):
    code, _, err = run(["compare", "--n", "4", "--h", "x"], capsys)
    assert code == 4
    assert "positive" in err
    code, _, err = run(["compare", "--n", "4", "--h", "log(x)"], capsys)
    assert code == 4


@pytest.mark.parametrize("h, fault", [
    ("1/x", "division by zero at x = 0.0"),
    ("log(x)+5", "log of a nonpositive value at x = 0.0"),
])
def test_exit_4_names_the_point_of_an_evaluation_fault(capsys, h, fault):
    code, out, err = run(["compare", "--n", "3", "--h", h], capsys)
    assert code == 4
    assert out == ""
    assert err == f"error: perturbation rejected: {fault}\n"


@pytest.mark.parametrize("argv", [
    ["exact", "--n", "4,6"],
    ["compare", "--n", "4,6", "--h", "exp(x)"],
], ids=["exact", "compare"])
def test_exit_3_on_precision_failure(capsys, monkeypatch, argv):
    def broken(ms, n, p):
        raise PrecisionError(f"pivot 3 is not positive at {p.decimal_digits} digits")

    monkeypatch.setattr(cli, "hankel_logdet_ldl", broken)
    code, out, err = run(argv, capsys)
    assert code == 3
    rep = json.loads(out)
    assert all(row["error_type"] == "PrecisionError" for row in rep["rows"])
    assert "pivot" in rep["rows"][0]["error"]


@pytest.mark.parametrize("argv", [
    ["exact", "--n", "2", "--alpha", "1e20"],
    ["compare", "--n", "2", "--alpha", "1e20", "--h", "1+x^2"],
], ids=["exact", "compare"])
def test_exit_3_when_the_guard_screen_cancels(capsys, argv):
    """At alpha = 1e20, alpha_0 rounds to -1 in floats and P_1(-1) to 0.0,
    where P_1 has no zero: an error row naming x, not a math domain error."""
    code, out, err = run(argv, capsys)
    assert code == 3
    assert err == ""
    row, = json.loads(out)["rows"]
    assert row["error_type"] == "PrecisionError"
    assert row["error"].startswith("P_1(-1) cancels to 0 in floats")


def test_exit_3_when_routes_differ_beyond_method_tol(capsys, monkeypatch):
    recurrence = cli.hankel_logdet_recurrence

    def offset(ms, n, jp, p):
        r = recurrence(ms, n, jp, p)
        with p.workdps():
            return r._replace(log_det=r.log_det + mpmath.mpf("1e-30"))

    monkeypatch.setattr(cli, "hankel_logdet_recurrence", offset)
    code, out, _ = run(["compare", "--n", "10", "--h", "exp(x)"], capsys)
    assert code == 3
    row = json.loads(out)["rows"][0]
    assert row["error_type"] == "PrecisionError"
    assert "method_tol 1.0e-47" in row["error"]


def test_exit_3_when_exact_routes_differ_beyond_method_tol(capsys, monkeypatch):
    closed = cli.jacobi_logdet_exact

    def offset(n, jp, p):
        with p.workdps():
            return closed(n, jp, p) + mpmath.mpf("1e-30")

    monkeypatch.setattr(cli, "jacobi_logdet_exact", offset)
    code, out, _ = run(["exact", "--n", "10"], capsys)
    assert code == 3
    row = json.loads(out)["rows"][0]
    assert row["error_type"] == "PrecisionError"
    assert "closed form and norm product differ by 1.0e-30" in row["error"]
    assert "method_tol 1.0e-47" in row["error"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit):
        # argparse exits by itself on unknown subcommands; main() converts
        # its own failures, so drive the parser path through main too
        cli.build_parser().parse_args(["nonsense"])
    code = cli.main(["nonsense"])
    capsys.readouterr()
    assert code == 2
    # the ensemble-average check is compare --heine; there is no heine subcommand
    assert cli.main(["heine", "--n", "1,2", "--h", "exp(x)"]) == 2
    capsys.readouterr()


if __name__ == "__main__":
    # print what moved, then pin the fresh reports
    fresh = [pinned_report(argv) for argv in PINNED_ARGV]
    pinned = json.loads(PINNED_REPORTS.read_text()) if PINNED_REPORTS.exists() else []
    before = {shlex.join(entry["argv"]): entry for entry in pinned}
    for entry in fresh:
        command = shlex.join(entry["argv"])
        for d in _differences(before.get(command), entry):
            print(f"{command}: {d}")
    PINNED_REPORTS.parent.mkdir(exist_ok=True)
    PINNED_REPORTS.write_text(json.dumps(fresh, indent=2) + "\n")

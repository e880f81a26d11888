"""Reference values of ln D_n in plain mpmath, independent of the package.

ln D_n = sum_{j<n} ln h_j, and h_j = beta_j h_{j-1} with the monic Jacobi
recurrence coefficient beta_j, so for the bare weight

    ln D_n = n ln h_0 + sum_{j=1}^{n-1} (n - j) ln beta_j,

with beta_j exact rationals for rational exponents and
h_0 = 2^(s+1) Gamma(a+1) Gamma(b+1) / Gamma(s+2). Only h_0 needs a
special function.

For a perturbed weight w h the same sum holds with the recurrence
coefficients of w h, which are computed here by the Stieltjes procedure on
the discrete measure of an order-M Gauss-Jacobi rule with node values
multiplied by h. The rule comes from float eigenvalue seeds refined by
Newton's method with precision doubling. Convergence in M is the caller's
check: :func:`perturbed_logdets` is run at two orders and compared.
"""
from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy
from mpmath import mp, mpf


def recurrence(j: int, a: Fraction, b: Fraction) -> tuple:
    """Exact monic Jacobi coefficients (alpha_j, beta_j); beta_0 is unused (None)."""
    s = a + b
    alpha = (b - a) / (s + 2) if j == 0 else (b * b - a * a) / ((2 * j + s) * (2 * j + s + 2))
    if j == 0:
        return alpha, None
    if j == 1:
        # (j + s) cancels against (2j + s - 1), which keeps s = -1 finite
        return alpha, 4 * (1 + a) * (1 + b) / ((s + 2) ** 2 * (s + 3))
    beta = (4 * j * (j + a) * (j + b) * (j + s)
            / ((2 * j + s) ** 2 * (2 * j + s + 1) * (2 * j + s - 1)))
    return alpha, beta


def _mpf(q: Fraction):
    return mpf(q.numerator) / q.denominator


def _log(q: Fraction):
    return mpmath.log(q.numerator) - mpmath.log(q.denominator)


def log_h0(a: Fraction, b: Fraction):
    """ln of the zeroth moment of (1-x)^a (1+x)^b, at the current precision."""
    s = a + b
    return ((_mpf(s) + 1) * mpmath.log(2) + mpmath.loggamma(_mpf(a) + 1)
            + mpmath.loggamma(_mpf(b) + 1) - mpmath.loggamma(_mpf(s) + 2))


def bare_logdet(n: int, a: Fraction, b: Fraction, dps: int):
    """ln D_n of the bare weight, computed at ``dps`` digits."""
    with mp.workdps(dps):
        terms = [n * log_h0(a, b)]
        terms += [(n - j) * _log(recurrence(j, a, b)[1]) for j in range(1, n)]
        return +mpmath.fsum(terms)


def _coeffs(m: int, a: Fraction, b: Fraction) -> tuple:
    pairs = [recurrence(j, a, b) for j in range(m)]
    return [_mpf(al) for al, _ in pairs], [mpf(0)] + [_mpf(be) for _, be in pairs[1:]]


def _monic(x, ca, cb):
    """P_m(x), P_m'(x) and P_{m-1}(x) by the three-term recurrence."""
    pm1, p = mpf(0), mpf(1)
    dm1, d = mpf(0), mpf(0)
    for k in range(len(ca)):
        t = x - ca[k]
        pm1, p, dm1, d = p, t * p - cb[k] * pm1, d, p + t * d - cb[k] * dm1
    return p, d, pm1


def gauss_jacobi(m: int, a: Fraction, b: Fraction, dps: int) -> tuple:
    """Nodes and weights of the order-m Gauss rule for (1-x)^a (1+x)^b at ``dps`` digits."""
    exact = [recurrence(j, a, b) for j in range(m)]
    diag = [float(al) for al, _ in exact]
    off = [float(be) ** 0.5 for _, be in exact[1:]]
    jacobi = numpy.diag(diag) + numpy.diag(off, 1) + numpy.diag(off, -1)
    seeds = sorted(numpy.linalg.eigvalsh(jacobi))
    # each level roughly doubles the correct digits; the last three run at
    # full precision, the final one only confirms
    levels = []
    d = 30
    while d < dps:
        levels.append(d)
        d *= 2
    levels += [dps, dps, dps]
    nodes = [mpf(x) for x in seeds]
    for level in levels:
        with mp.workdps(level + 10):
            ca, cb = _coeffs(m, a, b)
            step_max = mpf(0)
            for i, x in enumerate(nodes):
                p, dp, _ = _monic(x, ca, cb)
                step = p / dp
                nodes[i] = x - step
                step_max = max(step_max, abs(step))
    with mp.workdps(dps + 10):
        if not step_max < mpf(10) ** (-dps):
            raise ArithmeticError(f"order-{m} rule: last Newton step {step_max}")
        if any(not nodes[i] < nodes[i + 1] for i in range(m - 1)) or not -1 < nodes[0]:
            raise ArithmeticError(f"order-{m} rule: nodes out of order")
        ca, cb = _coeffs(m, a, b)
        log_h = log_h0(a, b) + mpmath.fsum(_log(be) for _, be in exact[1:])
        h_last = mpmath.exp(log_h)
        weights = []
        for x in nodes:
            _, dp, pm1 = _monic(x, ca, cb)
            weights.append(h_last / (pm1 * dp))
        total = mpmath.fsum(weights)
        if abs(total / mpmath.exp(log_h0(a, b)) - 1) > mpf(10) ** (10 - dps):
            raise ArithmeticError(f"order-{m} rule: weights do not sum to mu_0")
        return nodes, weights


def perturbed_logdets(rule: tuple, h, n_max: int, dps: int) -> list:
    """ln D_1..ln D_{n_max} of w h by the Stieltjes procedure on the discrete rule measure."""
    nodes, weights = rule
    with mp.workdps(dps):
        v = [w * h(x) for x, w in zip(nodes, weights)]
        prev = [mpf(0)] * len(nodes)
        cur = [mpf(1)] * len(nodes)
        norm_prev = None
        log_betas = []
        for k in range(n_max):
            sq = [vi * c * c for vi, c in zip(v, cur)]
            norm = mpmath.fsum(sq)
            alpha = mpmath.fsum(s * x for s, x in zip(sq, nodes)) / norm
            beta = norm if k == 0 else norm / norm_prev
            log_betas.append(mpmath.log(beta))
            nxt = [(x - alpha) * c - (0 if k == 0 else beta) * p
                   for x, c, p in zip(nodes, cur, prev)]
            prev, cur, norm_prev = cur, nxt, norm
        return [mpmath.fsum((n - j) * log_betas[j] for j in range(n))
                for n in range(1, n_max + 1)]

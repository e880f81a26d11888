"""High-precision Gauss quadrature for the weight (1-x)^alpha (1+x)^beta,
and Chebyshev expansion of smooth functions on [-1, 1].

Nodes are the roots of the degree-m monic orthogonal polynomial, located by
Newton iteration on the three-term recurrence evaluation. Double-precision
root estimates seed the iteration (they are accurate to ~1e-14, so Newton
converges quadratically in a handful of steps); any node that fails to
converge or lands outside its interlacing bracket is recovered by bisection
on the sign change of the polynomial, and failure after that raises with
diagnostics rather than returning silently.

Weights use the classical Christoffel formula for monic polynomials,

    w_i = h_{m-1} / (P_{m-1}(x_i) * P'_m(x_i)),

which is positive at every root and needs one extra norm constant h_{m-1}.
"""
from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp, mpf
from scipy.special import roots_jacobi

from .errors import DomainError, ResolutionError, RootFindError
from .jacobi import JacobiParams, jacobi_log_hn, jacobi_recurrence_table
from .precision import GUARD_DIGITS, BigReal, Precision, ensure_finite


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule of order m: strictly increasing nodes in (-1,1), positive weights.

    Exact (to working precision) for polynomial integrands of degree up to
    2m-1 against the weight described by ``jp``; the weight total equals the
    zeroth moment mu_0.
    """

    nodes: tuple
    weights: tuple
    order: int
    jp: JacobiParams

    def integrate(self, f) -> BigReal:
        """Sum of w_i * f(x_i) at the current working precision."""
        return mpmath.fsum(w * f(x) for x, w in zip(self.nodes, self.weights))


def _eval_monic(m: int, x, ca, cb, deriv: bool = False):
    """P_m(x), and optionally (P'_m(x), P_{m-1}(x)), by the three-term recurrence."""
    pkm1, pk = mpf(0), mpf(1)
    dkm1, dk = mpf(0), mpf(0)
    for k in range(m):
        pkp1 = (x - ca[k]) * pk - cb[k] * pkm1
        if deriv:
            dkp1 = pk + (x - ca[k]) * dk - cb[k] * dkm1
            dkm1, dk = dk, dkp1
        pkm1, pk = pk, pkp1
    if deriv:
        return pk, dk, pkm1
    return pk


def _bisect_root(m, lo, hi, ca, cb, tol):
    flo = _eval_monic(m, lo, ca, cb)
    fhi = _eval_monic(m, hi, ca, cb)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        return None
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = _eval_monic(m, mid, ca, cb)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def gauss_jacobi_rule(m: int, jp: JacobiParams, p: Precision) -> QuadratureRule:
    """Order-m Gauss rule for the weight (1-x)^alpha (1+x)^beta."""
    if m < 1:
        raise DomainError(f"rule order must be >= 1, got {m}")
    with p.workdps(2 * GUARD_DIGITS):
        inner = Precision(max(32, mp.dps))
        ca, cb = jacobi_recurrence_table(m, jp)
        seeds = [mpf(v) for v in roots_jacobi(m, float(jp.alpha), float(jp.beta))[0]]
        # interlacing brackets between consecutive seeds (seeds are within
        # ~1e-13 of the true roots, midpoints separate them safely)
        edges = [mpf(-1)] + [(seeds[i] + seeds[i + 1]) / 2 for i in range(m - 1)] + [mpf(1)]
        tol = mpf(10) ** (-(mp.dps - 4))
        nodes = []
        for i, seed in enumerate(seeds):
            x = seed
            converged = False
            for _ in range(120):
                pm, dpm, _ = _eval_monic(m, x, ca, cb, deriv=True)
                if dpm == 0:
                    break
                step = pm / dpm
                x = x - step
                if not (edges[i] < x < edges[i + 1]):
                    break
                if abs(step) <= tol * max(abs(x), mpf(1)):
                    pm, dpm, _ = _eval_monic(m, x, ca, cb, deriv=True)
                    if dpm != 0:
                        x = x - pm / dpm
                    converged = True
                    break
            if not converged:
                x = _bisect_root(m, edges[i], edges[i + 1], ca, cb, tol)
                if x is None:
                    raise RootFindError(
                        f"node {i} of order-{m} rule for alpha={jp.alpha}, "
                        f"beta={jp.beta} did not converge from seed {seeds[i]}")
            nodes.append(x)
        for i in range(m - 1):
            if not nodes[i] < nodes[i + 1]:
                raise RootFindError(
                    f"nodes {i}, {i + 1} of order-{m} rule are not increasing: "
                    f"{nodes[i]}, {nodes[i + 1]}")
        h_last = mpmath.exp(jacobi_log_hn(m - 1, jp, inner))
        weights = []
        for i, x in enumerate(nodes):
            _, dpm, pm1 = _eval_monic(m, x, ca, cb, deriv=True)
            w = h_last / (pm1 * dpm)
            if not w > 0:
                raise RootFindError(
                    f"weight {i} of order-{m} rule is not positive: {w}")
            weights.append(ensure_finite(w, f"weight {i}"))
        return QuadratureRule(tuple(nodes), tuple(weights), m, jp)


def perturbed_moment(k: int, jp: JacobiParams, h, m: int, p: Precision) -> BigReal:
    """Moment mu_k of the perturbed weight w(x) h(x), by an order-m Gauss rule.

    The rule is exact for the polynomial factor x^k through degree 2m-1; the
    excess order absorbs the analytic perturbation h. Convergence in m is the
    caller's check.
    """
    if k < 0:
        raise DomainError(f"moment order must be nonnegative, got {k}")
    rule = gauss_jacobi_rule(m, jp, p)
    with p.workdps():
        return ensure_finite(
            mpmath.fsum(w * x ** k * h(x) for x, w in zip(rule.nodes, rule.weights)),
            f"perturbed mu_{k}")


@dataclass(frozen=True)
class ChebExpansion:
    """Chebyshev-T coefficients c_0..c_M of a function on [-1, 1].

    Convention: f(cos t) = c_0/2 + sum_{k>=1} c_k cos(k t), i.e. the k = 0
    term is halved in reconstruction. ``tail_bound`` dominates the last two
    coefficients and estimates the truncation error for rapidly decaying
    (analytic) sources.
    """

    coeffs: tuple
    tail_bound: object

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x) -> BigReal:
        """Evaluate by the Clenshaw recurrence at the current working precision."""
        b1, b2 = mpf(0), mpf(0)
        two_x = 2 * x
        for k in range(self.degree, 0, -1):
            b1, b2 = self.coeffs[k] + two_x * b1 - b2, b1
        return self.coeffs[0] / 2 + x * b1 - b2


def cheb_expand(f, M: int, p: Precision) -> ChebExpansion:
    """Degree-M Chebyshev interpolant of f from its values at the M+1 extrema points.

    Uses the type-I discrete cosine transform on x_j = cos(pi j / M):

        c_k = (2/M) * sum''_{j=0..M} f(x_j) cos(pi j k / M)

    where '' halves the first and last terms of the sum.
    """
    if M < 1:
        raise DomainError(f"expansion degree must be >= 1, got {M}")
    with p.workdps(2 * GUARD_DIGITS):
        # one shared table: cos(pi i / M) for i = 0..2M-1 covers every product jk mod 2M
        cos_table = [mpmath.cos(mpmath.pi * i / M) for i in range(2 * M)]
        fx = [f(cos_table[j]) for j in range(M + 1)]
        fx[0] = fx[0] / 2
        fx[M] = fx[M] / 2
        coeffs = []
        for k in range(M + 1):
            acc = mpf(0)
            for j in range(M + 1):
                acc += fx[j] * cos_table[(j * k) % (2 * M)]
            coeffs.append(ensure_finite(2 * acc / M, f"c_{k}"))
        tail = max(abs(coeffs[-1]), abs(coeffs[-2]))
        return ChebExpansion(tuple(coeffs), tail)


def cheb_expand_auto(f, p: Precision, start: int = 64, limit: int = 8192) -> ChebExpansion:
    """Smallest power-of-two degree >= ``start`` whose tail bound clears 10^(-digits/2).

    Doubles the resolution until the last two coefficients fall below the
    threshold; analytic sources decay geometrically so this terminates fast.
    Raises ResolutionError if ``limit`` is reached without convergence.
    """
    threshold = mpf(10) ** (-(p.decimal_digits // 2))
    M = start
    while M <= limit:
        ce = cheb_expand(f, M, p)
        if ce.tail_bound < threshold:
            return ce
        M *= 2
    raise ResolutionError(
        f"Chebyshev tail bound did not reach {mpmath.nstr(threshold, 3)} "
        f"by degree {limit}; the source may not be analytic on [-1, 1]")

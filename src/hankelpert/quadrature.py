"""High-precision Gauss quadrature for the weight (1-x)^alpha (1+x)^beta,
and Chebyshev expansion of smooth functions on [-1, 1].

Nodes are the roots of the degree-m monic orthogonal polynomial P_m, the
eigenvalues of its symmetric tridiagonal Jacobi matrix (diagonal alpha_k,
off-diagonal sqrt(beta_k); Golub and Welsch, Math. Comp. 23 (1969) 221).
The seeds are those eigenvalues in floats, by implicit QL with Wilkinson
shifts (EISPACK tql1, O(m^2) in all), each within a few units of 2^-52 of
its node (at most 2.8e-15 at orders up to 494, exponents -99/100 to 100).

Each seed is then polished on the scaled recurrence Q_k = 2^k P_k,

    Q_{k+1} = (2x - 2 alpha_k) Q_k - 4 beta_k Q_{k-1},

whose values do not shrink like 2^-k as the P_k do (4 beta_k -> 1). Each
evaluation runs only this recurrence, to Q_m and Q_{m-1}; the derivative
comes from the Jacobi structure relation (Hale and Townsend, SIAM J. Sci.
Comput. 35 (2013) A652)

    (1 - x^2) Q'_m = (B - m x) Q_m + C Q_{m-1},

with exact B and C (:func:`jacobi_structure_exact`), and the second
derivative from the Jacobi differential equation

    (1 - x^2) Q''_m + (beta - alpha - (s+2) x) Q'_m + lambda Q_m = 0,
    s = alpha + beta,  lambda = m (m+s+1).

Halley's method runs on F-bit fixed-point Python integers (x, 2 alpha_k
and 4 beta_k scaled by 2^F, F = working bits + guard bits, each product
shifted back by F), which does the work of mpf arithmetic without its
per-operation overhead. With D = (1 - x^2) Q'_m, a step

    2 Q D (1 - x^2) / (2 D^2 + Q [(beta - alpha - (s+2) x) D + lambda (1 - x^2) Q])

costs one recurrence sweep, as a Newton step does, and triples the correct
digits of the float seed where Newton doubles them. A node is accepted
once the Newton correction Q (1 - x^2) / D at it is at most one unit in
its last returned place; that evaluation also gives its weight. So two
steps and the accepting evaluation, three evaluations per node, reach
working precision up to about 95 requested digits, and four beyond that
up to about 330. Fixed point resolves small values only absolutely, so
the guard grows with m (1 - x^2 near +-1 falls like 1/m^2) and with the
bits by which the smallest |Q_k| falls below 1 at large exponents,
screened at x = +-1 and at the weight's mean, near its peak, where the
zeros crowd (about 2^-58 at (100, 60), m = 120). The same loop
safeguards the node: it keeps a bracket, from the midpoints between
neighbouring seeds, whose ends each evaluation moves by the measured sign
of Q_m. A step that would leave it, or a zero step, takes its midpoint
instead, unless two measured values of opposite sign already pin the node
within 2^-(prec-16): then that node is accepted, as where Halley steps
would stall at the rounding level of Q_m short of the one-unit test. A
bracket that finds no sign change within the step cap raises with
diagnostics rather than returning silently.

Weights use the classical Christoffel formula for monic polynomials, with
Q'_m from the structure relation,

    w_i = h_{m-1} / (P_{m-1}(x_i) * P'_m(x_i))
        = h_{m-1} 2^(2m-1) (1 - x_i^2) / (Q_{m-1}(x_i) * (C Q_{m-1}(x_i) + (B - m x_i) Q_m(x_i))),

which is positive at every root and needs one extra norm constant h_{m-1}.
An order-62 rule at 103 digits takes about 14 ms and an order-124 rule at
161 digits about 88 ms (2 vCPU Xeon, Python 3.11, mpmath 1.3.0
pure-Python backend), of which the seeds are 1.8 and 6.7 ms.

Chebyshev expansions and the positivity screen of ``dsl`` sample on the
Chebyshev-Lobatto nodes cos(pi t / M), M a power of two. One cosine table
per working precision (:func:`lobatto_cos`) holds them and the transform's
twiddle sines, so each :func:`cheb_expand_auto` doubling computes only its
new angles (64, 128, 256 for ln(1 + 2x^2) in ``compare --n 40``).
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import mpmath
from mpmath import mp, mpf

from .errors import DomainError, ResolutionError, RootFindError
from .jacobi import (JacobiParams, jacobi_log_hn, jacobi_recurrence_table,
                     jacobi_structure_exact, recurrence_frexp)
from .precision import (GUARD_DIGITS, KERNEL_GUARD_BITS, BigReal, Precision,
                        ensure_finite, to_fixed, to_mpf)

#: Implicit QL sweeps allowed per eigenvalue of the Jacobi matrix (the seeds).
SEED_ITERATIONS = 30
#: Guard digits at which :func:`cheb_expand` samples f, and ``dsl``'s positivity
#: screen samples h, so that one memo of h serves both.
SAMPLE_GUARD_DIGITS = 2 * GUARD_DIGITS
#: Largest degree :func:`cheb_expand_auto` tries before it gives up.
CHEB_DEGREE_LIMIT = 8192


class QuadratureRule(NamedTuple):
    """Gauss rule of order m: strictly increasing nodes in (-1,1), positive weights.

    The sum of w_i f(x_i) is exact (to working precision) for polynomial f
    of degree up to 2m-1 against the weight the rule was built for; the
    weight total equals the zeroth moment mu_0.
    """

    nodes: tuple
    weights: tuple


def _seed_nodes(diag, off) -> list:
    """Increasing float eigenvalues of the symmetric tridiagonal matrix with
    diagonal ``diag`` and off-diagonal ``off``, by implicit QL with Wilkinson
    shifts; an off-diagonal entry below the rounding level of 1, the scale of
    a Jacobi matrix on [-1, 1], splits the matrix.
    """
    d, e = list(diag), list(off) + [0.0]
    m = len(d)
    for l in range(m):
        for sweep in range(SEED_ITERATIONS + 1):
            k = l
            while k < m - 1 and 1 + abs(e[k]) != 1:
                k += 1
            if k == l:
                break
            if sweep == SEED_ITERATIONS:
                raise RootFindError(f"seed {l} of order-{m} rule did not converge "
                                    f"in {SEED_ITERATIONS} QL sweeps")
            # Wilkinson shift: the eigenvalue of the leading 2x2 block nearer d[l]
            g = (d[l + 1] - d[l]) / (2 * e[l])
            g = d[k] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1), g))
            s = c = 1.0
            p = 0.0
            # chase the bulge from row k up to row l by plane rotations
            for i in range(k - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                if r == 0:
                    # the rotation underflowed: the block splits at row i + 1
                    d[i + 1] -= p
                    e[k] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l], e[k] = g, 0.0
    return sorted(d)


def scaled_recurrence(ca, cb, spare_bits: int) -> tuple:
    """(F, 2 alpha_k, 4 beta_k) of the scaled recurrence on fixed-point integers scaled by 2^F.

    F is the working bits plus ``KERNEL_GUARD_BITS``, ``spare_bits`` for the caller's
    rounding count, and the bits by which the smallest |Q_k|, k <= m, falls below 1, read
    by :func:`recurrence_frexp` at x = +-1 and at the weight's mean alpha_0, where a Q_k
    may vanish and the larger of |Q_k| and |Q_{k-1}| counts. Each exact entry enters at
    F bits by one integer division, rounded down: within one unit of 2^-F.
    """
    # Q_k = 2^k P_k, so k + e_k is the binary exponent of Q_k
    low, high, mean = ([k + e for k, (_, e) in enumerate(recurrence_frexp(ca, cb, x))]
                       for x in (-1.0, 1.0, float(ca[0])))
    bits = (mp.prec + KERNEL_GUARD_BITS + spare_bits
            + 1 - min(*low, *high, *map(max, mean, mean[1:])))
    return bits, [to_fixed(2 * a, bits) for a in ca], [to_fixed(4 * b, bits) for b in cb]


def _eval_fixed(x: int, two_alpha, four_beta, bits: int) -> tuple:
    """(Q_m(x), Q_{m-1}(x)) on fixed-point integers scaled by 2^bits."""
    two_x = 2 * x
    qm1, q = 0, 1 << bits
    for a, b in zip(two_alpha, four_beta):
        qm1, q = q, ((two_x - a) * q - b * qm1) >> bits
    return q, qm1


@functools.lru_cache
def gauss_jacobi_rule(m: int, jp: JacobiParams, p: Precision) -> QuadratureRule:
    """Order-m Gauss rule for the weight (1-x)^alpha (1+x)^beta, built once per (m, jp, p)."""
    if m < 1:
        raise DomainError(f"rule order must be >= 1, got {m}")
    with p.workdps(2 * GUARD_DIGITS):
        ca, cb = jacobi_recurrence_table(m, jp)
        seeds = _seed_nodes([float(a) for a in ca], [math.sqrt(b) for b in cb[1:]])
        for i, seed in enumerate(seeds):
            if not -1 < seed < 1:
                raise RootFindError(
                    f"seed {i} of order-{m} rule for alpha={jp.alpha}, "
                    f"beta={jp.beta} is {seed}, outside (-1, 1)")
        bits, two_alpha, four_beta = scaled_recurrence(ca, cb, 5 * m.bit_length())
        one = 1 << bits
        s = jp.alpha + jp.beta
        b_fixed, c_fixed, b_minus_a, s_plus_2, lam = (
            to_fixed(v, bits) for v in (*jacobi_structure_exact(m, jp), jp.beta - jp.alpha,
                                        s + 2, m * (m + s + 1)))

        def newton_terms(x):
            """(Q_m, (1 - x^2) Q'_m, Q_{m-1}, 1 - x^2) at x, each scaled by 2^bits."""
            q, qm1 = _eval_fixed(x, two_alpha, four_beta, bits)
            return (q, ((b_fixed - m * x) * q + c_fixed * qm1) >> bits, qm1,
                    one - (x * x >> bits))

        xs = [int(mpmath.ldexp(s, bits)) for s in seeds]
        # interlacing brackets between consecutive seeds (seeds are within
        # ~1e-15 of the true roots, midpoints separate them safely)
        edges = [-one] + [(xs[i] + xs[i + 1]) // 2 for i in range(m - 1)] + [one]
        # a measured sign change this narrow, 2^-(prec-16), about 10^-(dps-5),
        # settles a node whose Halley step would leave its bracket
        width = 1 << (bits - mp.prec + 16)
        nodes, terms = [], []
        for i, x in enumerate(xs):
            bracket, measured = [edges[i], edges[i + 1]], [False, False]
            for _ in range(120):
                q, d, _, one_minus_x2 = at_x = newton_terms(x)
                # Q_m > 0 right of its largest root, so (-1)^(m-1-i) Q_m > 0
                # right of node i: x becomes the bracket's upper or lower end
                side = (q > 0) == ((m - 1 - i) % 2 == 0)
                bracket[side], measured[side] = x, True
                # the Newton correction Q (1 - x^2) / D, D = (1 - x^2) Q'_m, is
                # the error to first order: accept within one unit of the
                # node's last returned place (mp.prec bits)
                if d and abs(q * one_minus_x2 // d) <= 1 << max(abs(x).bit_length() - mp.prec, 0):
                    break
                # Halley: 2 Q D (1 - x^2) / (2 D^2 - Q (1 - x^2)^2 Q''), where
                # the Jacobi equation gives -(1 - x^2)^2 Q'' =
                # (beta - alpha - (s+2) x) D + m (m+s+1) (1 - x^2) Q
                den = 2 * d * d + q * (((b_minus_a - (s_plus_2 * x >> bits)) * d
                                        + lam * (one_minus_x2 * q >> bits)) >> bits)
                step = 2 * q * d * one_minus_x2 // den if den else 0
                # a zero step (zero D or denominator) would stay on an end
                if bracket[0] < x - step < bracket[1]:
                    x -= step
                elif all(measured) and bracket[1] - bracket[0] <= width:
                    break
                else:
                    x = (bracket[0] + bracket[1]) // 2
            else:
                raise RootFindError(
                    f"node {i} of order-{m} rule for alpha={jp.alpha}, "
                    f"beta={jp.beta} did not converge from seed {seeds[i]}")
            nodes.append(x)
            terms.append(at_x)
        for i in range(m - 1):
            if not nodes[i] < nodes[i + 1]:
                raise RootFindError(
                    f"nodes {i}, {i + 1} of order-{m} rule are not increasing: "
                    f"{mpmath.ldexp(nodes[i], -bits)}, {mpmath.ldexp(nodes[i + 1], -bits)}")
        # (1 - x^2) / (Q_{m-1} (1 - x^2) Q'_m) carries the scale 2^-bits of
        # its three fixed-point factors
        scale = mpmath.ldexp(mpmath.exp(jacobi_log_hn(m - 1, jp, Precision(mp.dps))), 2 * m - 1 + bits)
        weights = []
        for i, (_, d, qm1, one_minus_x2) in enumerate(terms):
            if not (qm1 * d > 0 and one_minus_x2 > 0):
                raise RootFindError(
                    f"weight {i} of order-{m} rule is not positive: "
                    f"Q_(m-1) (1 - x^2) Q'_m = {mpmath.ldexp(qm1 * d, -2 * bits)}, "
                    f"1 - x^2 = {mpmath.ldexp(one_minus_x2, -bits)}")
            weights.append(ensure_finite(scale * one_minus_x2 / (qm1 * d), f"weight {i}"))
        return QuadratureRule(tuple(mpmath.ldexp(x, -bits) for x in nodes),
                              tuple(weights))


class ChebExpansion(NamedTuple):
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


@functools.lru_cache
def _quarter(prec: int, M: int) -> tuple:
    """cos(pi t / M) for t <= M/2 at ``prec`` bits; M a power of two.

    The even t are M/2's table; one ``mpmath.cos_sin`` per odd t <= M/4 writes
    its sine at M/2 - t and then its cosine at t (so M = 4 keeps cos(pi/4)).
    """
    if M <= 2:
        return (mpf(1), mpf(0))[:M // 2 + 1]
    table = [None] * (M // 2 + 1)
    table[0::2] = _quarter(prec, M // 2)
    with mp.workprec(prec):
        for t in range(1, M // 4 + 1, 2):
            table[M // 2 - t], table[t] = mpmath.cos_sin(mpmath.pi * t / M)[::-1]
    return tuple(table)


def lobatto_cos(M: int) -> list:
    """The Chebyshev-Lobatto nodes cos(pi t / M), t = 0..M, at the working precision.

    M is a power of two; :func:`_quarter` holds t <= M/2, and cos(pi - a) = -cos a.
    """
    quarter = _quarter(mp.prec, M)
    return [quarter[t] if 2 * t <= M else -quarter[M - t] for t in range(M + 1)]


def _dft(x: list, cos_t: list, stride: int, bits: int) -> tuple:
    """(Re X_k, Im X_k), X_k = sum_j x_j e^(-2 pi i j k / L), of real fixed-point x_j.

    L = len(x), a power of two, split into even and odd samples (radix 2).
    ``cos_t[t]`` is cos(2 pi t / N) scaled by 2^bits, t < N/2, N = L * stride at
    the top call; sin(2 pi t / N) is read as ``cos_t[|N/4 - t|]``. N = 2 has no
    integer N/4, so Im is wrong there; Re is right, as that sine meets a zero Im.
    """
    L = len(x)
    if L == 1:
        return x, [0]
    even_re, even_im = _dft(x[0::2], cos_t, 2 * stride, bits)
    odd_re, odd_im = _dft(x[1::2], cos_t, 2 * stride, bits)
    half, quarter = L // 2, len(cos_t) // 2
    out_re, out_im = [0] * L, [0] * L
    for k in range(half):
        t = k * stride
        c, s = cos_t[t], cos_t[abs(quarter - t)]
        t_re = (odd_re[k] * c + odd_im[k] * s) >> bits
        t_im = (odd_im[k] * c - odd_re[k] * s) >> bits
        out_re[k], out_re[k + half] = even_re[k] + t_re, even_re[k] - t_re
        out_im[k], out_im[k + half] = even_im[k] + t_im, even_im[k] - t_im
    return out_re, out_im


def cheb_expand(f, M: int, p: Precision) -> ChebExpansion:
    """Degree-M Chebyshev interpolant of f from its values at the M+1 extrema points.

    Uses the type-I discrete cosine transform on x_j = cos(pi j / M):

        c_k = (2/M) * sum''_{j=0..M} f(x_j) cos(pi j k / M)

    where '' halves the first and last terms of the sum. The sum is 1/M
    times the length-2M DFT of the even extension f_0..f_M, f_{M-1}..f_1,
    run by :func:`_dft` in O(M log M) on the node cosines alone, so M must be
    a power of two. Its fixed-point integers carry the working bits plus
    ``KERNEL_GUARD_BITS`` below the largest |f(x_j)|, so each coefficient is
    off by a few working ulps of that largest value, as a cosine sum in mpf
    would be.
    """
    if M < 1 or M & (M - 1):
        raise DomainError(f"expansion degree must be a power of two, got {M}")
    with p.workdps(SAMPLE_GUARD_DIGITS):
        cos_t = lobatto_cos(M)
        fx = [ensure_finite(to_mpf(f(x)), f"f(x_{j})") for j, x in enumerate(cos_t)]
        bits = mp.prec + KERNEL_GUARD_BITS
        scale = bits - max((mpmath.mag(v) for v in fx if v), default=0)
        ints = [int(mpmath.ldexp(v, scale)) for v in fx]
        out, _ = _dft(ints + ints[M - 1:0:-1],
                      [int(mpmath.ldexp(c, bits)) for c in cos_t[:M]], 1, bits)
        coeffs = tuple(mpmath.ldexp(v, -scale) / M for v in out[:M + 1])
        return ChebExpansion(coeffs, max(abs(coeffs[-1]), abs(coeffs[-2])))


def cheb_expand_auto(f, p: Precision) -> ChebExpansion:
    """Smallest power-of-two degree >= 64 whose tail bound clears 10^(-digits/2).

    Doubles the resolution until the last two coefficients fall below the
    threshold; analytic sources decay geometrically so this terminates fast.
    Raises ResolutionError if ``CHEB_DEGREE_LIMIT`` is reached without convergence.
    The nodes of degree M are the even-indexed nodes of degree 2M, so each
    doubling evaluates f only at its M new nodes.
    """
    threshold = mpf(10) ** (-(p.decimal_digits // 2))
    once = functools.cache(f)
    M = 64
    while M <= CHEB_DEGREE_LIMIT:
        ce = cheb_expand(once, M, p)
        if ce.tail_bound < threshold:
            return ce
        M *= 2
    raise ResolutionError(
        f"Chebyshev tail bound did not reach {mpmath.nstr(threshold, 3)} "
        f"by degree {CHEB_DEGREE_LIMIT}; the source may not be analytic on [-1, 1]")

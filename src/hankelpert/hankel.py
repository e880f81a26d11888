"""Direct computation of Hankel log-determinants from moments.

Two routes are implemented at working precision:

* ``hankel_logdet_ldl``        LDL pivots h_j = beta_0 ... beta_j of the raw
                               moments (monomial basis); ln det = sum of ln h_j;
* ``hankel_logdet_recurrence`` beta_j of the (possibly perturbed) weight from
                               its modified moments in the unperturbed Jacobi
                               basis; ln det = sum over j < n of (n-j) ln beta_j.

Both run one body, ``_factorization``, around :func:`modified_chebyshev`
(Gautschi, *Orthogonal Polynomials: Computation and Approximation*, 2004),
the modified Chebyshev algorithm on fixed-point integers with a scale per
column and per row, which reads 2n - 1 moments and basis entries, each
floored to fixed point once, and returns beta_0..beta_{n-1} alone; only
moments, basis and failure message differ. The
exact oracle ``rational_hankel_minors`` gives D_1..D_n over the rationals
by fraction-free (Bareiss) elimination, for integer weight exponents and
polynomial perturbations.

Hankel matrices of smooth positive weights are notoriously ill-conditioned:
the pivots decay geometrically (like 4^-j here), so the internal arithmetic
needs a linear-in-n digit guard. It adds, on top of whatever precision is
requested (``auto_digits``' default max(64, ceil(1.4 n) + 32), or any
override of at least 32 digits), a conditioning
guard, 8 + ceil(max(0.7 n, decay + 2 + max(0, 2 growth - 8)))
digits with decay = log10(mu_0 / h_{n-1}) the bare weight's exact pivot
decay and growth = log10 max |P_{n-1}(x)| over x = 1, -1, i, P its monic
orthogonal polynomial, so results still honour the 8-guard-digit contract
of the requested precision. The decay is about 0.6 n at moderate
exponents, and sets the guard only at small n and at large exponents (46
digits at alpha = 60 with n = 40); growth adds to it at large exponents
and, from n of about 100, at every exponent. Breakdown, the kernel's first
nonpositive pivot or recurrence coefficient, raises PrecisionError with
the failing index; it is detected, never masked.

The module also evaluates, for n <= 3, the multidimensional-integral form of
the determinant ratio

    D_n[w h] / D_n[w] = < prod_j h(x_j) >,

the average taken over the n-point ensemble with joint density proportional
to prod_{j<k} (x_k - x_j)^2 prod_j w(x_j); this is the classical identity
expressing a Hankel determinant as an n-fold integral, and serves as an
independent oracle for the moment-based routes.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mp, mpf

from .errors import DomainError, PrecisionError
from .jacobi import (JacobiParams, jacobi_moment, jacobi_moment_exact, jacobi_moment_ratio_terms,
                     jacobi_moment_ratios, jacobi_recurrence_table, recurrence_frexp)
from .precision import (GUARD_DIGITS, KERNEL_GUARD_BITS, BigReal, Precision,
                        checked_namedtuple, ensure_finite, running_product, to_fixed)

#: Extra decimal digits per matrix row consumed by pivot decay during factorization.
CONDITIONING_GUARD_PER_ROW = 0.7
#: Digits over the weight's own pivot decay that the conditioning guard keeps at least.
DECAY_MARGIN = 2
#: Gauss rule order above the size for perturbed moments: the default and the minimum.
QUAD_ORDER_MARGIN = 32


def auto_digits(n: int) -> int:
    """Default precision policy for determinants of size n: max(64, ceil(1.4 n) + 32)."""
    return max(64, math.ceil(1.4 * n) + 32)


def auto_precision(n: int) -> Precision:
    return Precision(auto_digits(n))


def _conditioning_guard(n: int, jp: JacobiParams = None) -> int:
    """Guard digits of a size-n factorization: 8 + ceil(0.7 n), or, for the
    weight of exponents ``jp``, 8 + ceil(max(0.7 n, decay + 2 + max(0, 2 growth - 8)))
    with decay and growth from :func:`_pivot_decay`.

    The rounding of the raw moments reaches ln D_n about decay + 2 growth
    digits below mu_0 (measured: decay plus 1.0-1.9 growth at n = 20-200
    and alpha up to 10^4), so once 2 growth passes the 8 guard digits the
    guard covers that loss and keeps 2 digits to spare."""
    rows = CONDITIONING_GUARD_PER_ROW * n
    if jp is not None:
        decay, growth = _pivot_decay(n, jp)
        rows = max(rows, decay + DECAY_MARGIN + max(0, 2 * growth - GUARD_DIGITS))
    return GUARD_DIGITS + math.ceil(rows)


@functools.lru_cache
def _pivot_decay(n: int, jp: JacobiParams) -> tuple:
    """(decay, growth), decay = log10(mu_0 / h_{n-1}) = -sum_{0<j<n} log10 beta_j
    and growth = log10 max |P_{n-1}(x)| over x = 1, -1, i, P monic, both from
    the exact recurrence.

    The last pivot of the bare weight's n x n moment matrix is decay digits
    below mu_0, and the moments, rounded relative to mu_0, lose as many. It
    is about 0.6 n for moderate exponents, under the 0.7 n floor, and 46 at
    alpha = 60 with n = 40. The factorization's multipliers are the
    monomial coefficients of the P_k, whose absolute sum is at least
    |P_k(x)| for |x| = 1: equal at x = 1 or -1 when the zeros crowd to one
    end, as at one large exponent, and at x = i when they are symmetric.
    growth is about 0.08 n at moderate exponents and nears 0.3 n as one
    exponent grows.

    P_{n-1} has no zero at 1, -1 or i, so a float zero there has cancelled
    (at alpha = 1e20 alpha_0 rounds to -1, P_1(-1) to 0.0): PrecisionError.
    """
    alphas, betas = jacobi_recurrence_table(n, jp)
    decay = -sum(math.log10(b.numerator) - math.log10(b.denominator) for b in betas[1:])
    growth = 0.0  # |P(i)| >= 1, the zeros being real
    for x in (1, -1, 1j):
        m, e = recurrence_frexp(alphas[:-1], betas, x)[-1]
        if not m:
            raise PrecisionError(f"P_{n - 1}({x}) cancels to 0 in floats, where it has "
                                 "no zero: the exponents are too large to size the guard")
        growth = max(growth, (e + math.log2(abs(m))) * math.log10(2))
    return decay, growth


def cross_validation_tol(n: int, p: Precision) -> BigReal:
    """Absolute agreement bound between the ldl and recurrence routes: n * 10^(16-digits)."""
    return n * mpf(10) ** (2 * GUARD_DIGITS - p.decimal_digits)


class MomentSequence(checked_namedtuple("MomentSequence", [
        ("mu", tuple), ("source", str), ("modified", tuple), ("basis", JacobiParams)])):
    """Moments mu_0..mu_{2n-2} of a weight, with provenance.

    ``source`` is "pure" for the bare weight or "perturbed(<expr>)" for a
    multiplicative perturbation, and ``basis`` the exponents of the bare
    weight, whose pivot decay sizes the factorization's conditioning guard.
    ``modified`` carries the moments against the monic orthogonal basis of
    that weight, nu_0..nu_{2n-2} as ``mu`` does; these are well
    conditioned, unlike the raw power moments, and the recurrence route
    reads nothing else. :func:`perturbed_moment_sequence` attaches them; a
    sequence without them, such as the pure one, serves the ldl route only.
    """

    __slots__ = ()

    def __new__(cls, mu: tuple, source: str, modified: tuple = None,
                basis: JacobiParams = None):
        if len(mu) == 0 or not mu[0] > 0:
            raise DomainError("moment sequence must start with mu_0 > 0")
        return super().__new__(cls, mu, source, modified, basis)

    def max_order(self) -> int:
        """Largest matrix size n this sequence covers (needs indices up to 2n-2)."""
        return (len(self.mu) + 1) // 2


class HankelResult(NamedTuple):
    """Log-determinant of one n x n Hankel matrix, n = len(betas).

    ``betas`` are the recurrence coefficients beta_0..beta_{n-1} whose
    weighted logarithms it sums, ln D_n = sum_{j<n} (n-j) ln beta_j; their
    first k give D_k (:func:`hankel_logdet_leading`).
    """

    log_det: object
    betas: tuple


def pure_moment_sequence(jp: JacobiParams, n: int, p: Precision) -> MomentSequence:
    """Moments of the unperturbed weight, for determinants up to size n.

    mu_0 comes from :func:`jacobi_moment` at digits + 16, the precision of
    :func:`jacobi_logdet_exact`'s special functions, so a row that asks for
    both lifts each Gamma argument once. An error delta in mu_0 scales every
    moment alike: it moves beta_0 = mu_0 alone, and ln D_n by n delta. The
    rest are mu_0 N_k / D_k from the exact integer ratio terms, each one
    integer division on the working bits plus 8, scaled to mu_0 as the
    factorization's fixed point is (|mu_k| <= mu_0), at the conditioning
    guard. The sequence carries no modified moments, so it feeds the ldl
    route only.
    """
    if n < 1:
        raise DomainError(f"size must be >= 1, got {n}")
    mass = jacobi_moment(0, jp, Precision(p.decimal_digits + GUARD_DIGITS))
    with p.workdps(_conditioning_guard(n, jp)):
        shift = mp.prec + 8 - mpmath.mag(mass)
        scaled = int(mpmath.ldexp(mass, shift))
        mus = tuple(mpmath.ldexp(scaled * num // den, -shift)
                    for num, den in jacobi_moment_ratio_terms(2 * n - 1, jp))
    return MomentSequence(mus, "pure", basis=jp)


def perturbed_moment_sequence(jp: JacobiParams, h, n: int, p: Precision,
                              m: int = None) -> MomentSequence:
    """Moments of the perturbed weight w*h by one order-m Gauss rule, m >= n + 32 (the default).

    One pass over the nodes yields both the raw power moments mu_0..mu_{2n-2}
    and the modified moments nu_0..nu_{2n-2} against the monic orthogonal
    basis of the unperturbed weight. The pass runs on F-bit fixed-point
    integers, F from ``quadrature.scaled_recurrence`` with one spare bit per bit of
    m: each node's w h becomes an integer W, scaled so that the largest sits
    at 2^F, the powers step as x^(k+1) W = (x^k W * X) >> F with X = 2^F x,
    and the basis is evaluated by the scaled
    recurrence Q_{k+1} = (2x - 2 alpha_k) Q_k - 4 beta_k Q_{k-1}, Q_k = 2^k P_k,
    so nu_k = 2^-k sum W Q_k. Every product rounds by one unit of 2^-F of
    the largest w h, as an mpf loop rounds by one unit of each value.
    """
    from .dsl import positive_sample
    from .quadrature import gauss_jacobi_rule, scaled_recurrence

    if n < 1:
        raise DomainError(f"size must be >= 1, got {n}")
    if m is None:
        m = n + QUAD_ORDER_MARGIN
    if m < n + QUAD_ORDER_MARGIN:
        raise DomainError(f"rule order {m} cannot resolve moments for size {n}: "
                          f"the minimum is {n + QUAD_ORDER_MARGIN}")
    with p.workdps(_conditioning_guard(n, jp)):
        rule = gauss_jacobi_rule(m, jp, Precision(mp.dps))
        count = 2 * n - 1
        bits, two_alpha, four_beta = scaled_recurrence(
            *jacobi_recurrence_table(count, jp), m.bit_length())
        whs = [ensure_finite(w * positive_sample(h, x), f"w h at node {i}")
               for i, (x, w) in enumerate(zip(rule.nodes, rule.weights))]
        shift = bits - mpmath.mag(max(whs))
        steps = tuple(zip(two_alpha[:count - 1], four_beta[:count - 1]))
        mus, nus = [0] * count, [0] * count
        for node, wh in zip(rule.nodes, whs):
            x = int(mpmath.ldexp(node, bits))
            two_x = 2 * x
            xp = q = int(mpmath.ldexp(wh, shift))
            qm1 = 0
            mus[0] += xp
            nus[0] += q
            for k, (a, b) in enumerate(steps, 1):
                xp = (xp * x) >> bits
                qm1, q = q, ((two_x - a) * q - b * qm1) >> bits
                mus[k] += xp
                nus[k] += q
        mus = tuple(mpmath.ldexp(v, -shift) for v in mus)
        nus = tuple(mpmath.ldexp(v, -shift - k) for k, v in enumerate(nus))
    label = getattr(h, "source", None) or getattr(h, "__name__", "h")
    return MomentSequence(mus, f"perturbed({label})", nus, jp)


def hankel_logdet_leading(betas, n: int, p: Precision) -> HankelResult:
    """ln D_n from the first n positive recurrence coefficients of a factorization of size >= n.

    The beta_0..beta_{n-1} of an N x N factorization are those of its
    leading n x n block, whatever the moments past mu_{2n-2}, so a sweep
    factorizes once at its largest size and reads every row from there.
    D_n = prod_{j<n} beta_0 ... beta_j is one :func:`running_product` cut
    to the working bits plus 2 bit_length(n) + 8, so its n(n+1)/2 + n cuts
    move ln D_n by under 2^-(prec+7); its binary exponent keeps D_n ~
    2^(-n^2) from underflowing, and ln D_n is one log, of the mantissa
    normalised to [1/2, 1), so adding exponent * ln 2 cancels no digits.
    Fewer than n coefficients raise DomainError.
    """
    if len(betas) < n:
        raise DomainError(f"ln det (size {n}) needs {n} recurrence coefficients, "
                          f"got {len(betas)}")
    betas = tuple(betas[:n])
    with p.workdps(_conditioning_guard(n)):
        factors = []
        for b in map(mpf, betas):
            if not b > 0:
                raise PrecisionError(f"ln det (size {n}) of a nonpositive beta: {b}")
            factors.append(b.man_exp)
        _, (man, exp) = running_product(factors, mp.prec + 2 * n.bit_length() + 8)
        bits = man.bit_length()
        log_det = mpmath.log(mpmath.ldexp(man, -bits)) + (exp + bits) * mpmath.ln2
        return HankelResult(ensure_finite(log_det, f"ln det (size {n})"), betas)


def _factorization(ms: MomentSequence, n: int, p: Precision, moments, basis,
                   breakdown) -> HankelResult:
    """The size-n result of :func:`modified_chebyshev` on ``moments(2n - 1)`` and
    ``basis(2n - 1)``; beta_0 = nu_0 = mu_0 in either basis. It runs at the
    conditioning guard of ``ms.basis``, the bare weight.

    A last beta_k <= 0, where the kernel stops, is a breakdown at index k
    (``breakdown(k, betas)`` words it): PrecisionError carrying
    beta_0..beta_{k-1}, positive, so they still give D_1..D_k.
    """
    if n < 1:
        raise DomainError(f"size must be >= 1, got {n}")
    if ms.max_order() < n:
        raise DomainError(f"moment sequence covers size {ms.max_order()}, need {n}")
    with p.workdps(_conditioning_guard(n, ms.basis)):
        betas = modified_chebyshev(moments(2 * n - 1), *basis(2 * n - 1), n)
        if not betas[-1] > 0:
            raise PrecisionError(breakdown(len(betas) - 1, betas), betas[:-1])
        return hankel_logdet_leading(betas, n, p)


def hankel_logdet_ldl(ms: MomentSequence, n: int, p: Precision) -> HankelResult:
    """ln det of the n x n Hankel matrix (mu_{j+k}) from its LDL pivots h_j = D_{j+1}/D_j.

    h_j = beta_0 ... beta_j in O(n^2) by the classical Chebyshev algorithm:
    the kernel on mu_0..mu_{2n-2} with zero auxiliary coefficients. The
    matrix is positive definite for any positive weight; a nonpositive
    pivot therefore identifies precision exhaustion (or an invalid weight)
    and raises with the failing index.
    """
    return _factorization(
        ms, n, p, lambda length: ms.mu[:length], lambda length: ((0,) * length,) * 2,
        lambda i, betas: f"matrix not positive definite at requested precision: "
                         f"pivot {i} = {mpmath.nstr(math.prod(betas[:i + 1]), 6)} "
                         f"at {p.decimal_digits} digits")


def modified_chebyshev(nu, aux_alpha, aux_beta, count: int) -> list:
    """Recurrence coefficients beta_0..beta_{count-1} from moments against a basis.

    ``nu[l]`` are the modified moments of the target weight against monic
    auxiliary polynomials with recurrence coefficients ``aux_alpha[l]``,
    ``aux_beta[l]`` (aux_beta[0] unused); entries 0..2 count - 2 of each,
    ints, Fractions or mpf, give the betas as an mpf list, beta_0 = nu_0.
    It stops right after the first beta_k <= 0 (a zero sigma_{k,k} gives
    beta_k = 0): a list ending in a nonpositive beta is a breakdown.

    The rows sigma_k of the algorithm (Gautschi, *Orthogonal Polynomials:
    Computation and Approximation*, 2004, section 2.1.7) run on F-bit
    fixed-point integers, F = working bits + ``KERNEL_GUARD_BITS`` +
    3 count. Column l is scaled by 2^(d_1 + ... + d_l), d_j about
    -log2(b_j)/2, so by about the inverse norm of the l-th auxiliary
    polynomial: a modified moment nu_l is of that polynomial's norm times
    a Fourier coefficient, so every column keeps its own precision however
    fast the norms fall (zero auxiliaries, the raw-moment map, leave the
    columns unscaled). Each input is floored to fixed point once
    (:func:`to_fixed`): the scaled moments so that the largest sits at
    2^F, a_l and b_l 2^(d_l) times 2^F. alpha_{k-1}, formed at step k from
    the live rows, and beta_{k-1} are held times 2^F too, and each row of
    products is shifted back by F. After each row the two live rows shift
    left until the diagonal sigma_{k,k}, the denominator of beta_{k+1},
    again carries F bits. The 3 count guard bits are for raw moments, where
    an error in sigma_{k,l} reaches a later diagonal amplified about
    2^(l-k): 2 count bits plus a slowly growing excess (about 9 digits at
    count = 100). They do not cover the raw moments' own rounding, about
    log10(mu_0 / h_{count-1}) digits; the caller's working precision
    carries that guard (:func:`_conditioning_guard`).
    """
    length = 2 * count - 1
    if len(nu) < length:
        raise DomainError(f"need {length} modified moments, got {len(nu)}")
    bits = mp.prec + KERNEL_GUARD_BITS + 3 * count
    steps = [0] + [max(0, (1 - mpmath.mag(b)) // 2) if b else 0 for b in aux_beta[1:length]]
    scales = list(itertools.accumulate(steps))
    shift = bits - max(mpmath.mag(v) + e for v, e in zip(nu, scales))
    sig = [to_fixed(v, shift + e) for v, e in zip(nu, scales)]
    aux_a = [to_fixed(v, bits) for v in aux_alpha[:length]]
    aux_b = [to_fixed(b, bits + d) for b, d in zip(aux_beta, steps)]
    sig_prev = [0] * length
    betas = [mpmath.ldexp(mpf(sig[0]), -shift)]
    ratio = beta = 0
    for k in range(1, count):
        if sig[k - 1] <= 0:
            break
        previous, ratio = ratio, (sig[k] << (bits - steps[k])) // sig[k - 1]
        alpha = aux_a[k - 1] + ratio - previous
        fresh = [0] * length
        for l in range(k, length - k):
            fresh[l] = (sig[l + 1] >> steps[l + 1]) - (
                ((alpha - aux_a[l]) * sig[l] + beta * sig_prev[l] - aux_b[l] * sig[l - 1]) >> bits)
        diag = fresh[k]
        betas.append(mpmath.ldexp(mpf(diag) / sig[k - 1], -steps[k]))
        beta = (diag << (bits - steps[k])) // sig[k - 1]
        up = bits - diag.bit_length()
        if up > 0:
            sig = [v << up for v in sig]
            fresh = [v << up for v in fresh]
        sig_prev, sig = sig, fresh
    return betas


def hankel_logdet_recurrence(ms: MomentSequence, n: int, jp: JacobiParams,
                             p: Precision) -> HankelResult:
    """ln det via the norm product: ln D_n = sum_{j<n} (n-j) ln beta_j, beta_0 = mu_0.

    beta_1..beta_{n-1} come from :func:`modified_chebyshev` on
    nu_0..nu_{2n-2} of ``ms.modified``, the moments against the unperturbed
    orthogonal basis ``jp``, and the exact table of that basis, which keeps
    the map well conditioned for smooth perturbations.
    A sequence without modified moments against ``jp`` raises DomainError
    after the size checks.
    """
    def modified(length):
        if ms.modified is None or ms.basis != jp or len(ms.modified) < length:
            raise DomainError(
                f"recurrence route needs {length} modified moments against the basis "
                f"alpha={jp.alpha}, beta={jp.beta}; sequence {ms.source!r} does not carry them")
        return ms.modified[:length]

    return _factorization(
        ms, n, p, modified, lambda length: jacobi_recurrence_table(length, jp),
        lambda k, betas: f"recurrence breakdown: beta_{k} = {mpmath.nstr(betas[k], 6)} "
                         f"at {p.decimal_digits} digits")


def _bareiss_leading_minors(rows):
    """Exact leading principal minors det_1..det_n of a rational matrix.

    Clears denominators to integers, runs fraction-free (Bareiss) elimination
    whose pivots are exactly the leading minors of the scaled matrix, then
    undoes the scaling.
    """
    n = len(rows)
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    A = [[int(v * scale) for v in row] for row in rows]
    minors = []
    prev = 1
    for i in range(n):
        if i > 0 and A[i - 1][i - 1] == 0:
            raise PrecisionError(f"exact elimination hit a zero leading minor at {i}")
        if i < n - 1:
            piv = A[i][i]
            for j in range(i + 1, n):
                for k in range(i + 1, n):
                    A[j][k] = (A[j][k] * piv - A[j][i] * A[i][k]) // prev
                A[j][i] = 0
            prev = piv
        minors.append(Fraction(A[i][i], scale ** (i + 1)))
    return minors


def rational_hankel_minors(jp: JacobiParams, n: int, h_coeffs=None):
    """Exact Hankel determinants D_1..D_n over the rationals.

    Requires nonnegative integer weight exponents; ``h_coeffs`` are optional
    rational polynomial coefficients (constant first) of a perturbation, whose
    moments reduce to shifted moments of the bare weight. D_k is mu_0^k times the
    minor of the ratios mu_k / mu_0, so no elimination step multiplies mu_0's digits.
    """
    if n < 1:
        raise DomainError(f"size must be >= 1, got {n}")
    extra = 0 if h_coeffs is None else len(h_coeffs) - 1
    base = jacobi_moment_ratios(2 * n - 1 + extra, jp)
    if h_coeffs is None:
        mus = base
    else:
        coeffs = [Fraction(c) for c in h_coeffs]
        mus = [sum(c * base[k + i] for i, c in enumerate(coeffs))
               for k in range(2 * n - 1)]
    H = [[mus[j + k] for k in range(n)] for j in range(n)]
    mass = jacobi_moment_exact(0, jp)
    return [mass ** k * minor for k, minor in enumerate(_bareiss_leading_minors(H), 1)]


def heine_average_small_n(n: int, jp: JacobiParams, h, p: Precision) -> BigReal:
    """Determinant ratio D_n[w h]/D_n[w] as an n-fold ensemble average, n <= 3.

    Evaluates both n-fold integrals (with and without prod_j h(x_j)) against
    the squared Vandermonde density by tensor-product Gauss quadrature and
    returns their ratio. Cost grows like (rule order)^n, hence the size cap.
    """
    from .dsl import positive_sample
    from .quadrature import gauss_jacobi_rule

    if n not in (1, 2, 3):
        raise DomainError(f"ensemble average implemented for n in 1..3, got {n}")
    order = max(24, p.decimal_digits + GUARD_DIGITS)
    with p.workdps(2 * GUARD_DIGITS):
        rule = gauss_jacobi_rule(order, jp, Precision(mp.dps))
        xs = rule.nodes
        ws = rule.weights
        hx = [positive_sample(h, x) for x in xs]
        q = len(xs)
        # pairwise squared differences, shared by both integrals
        d2 = [[(xs[i] - xs[j]) ** 2 for j in range(q)] for i in range(q)]
        num = den = mpf(0)

        def visit(chosen, weight, hprod):
            """Add the terms of every i_1 < ... < i_n that extends ``chosen``; ``weight``
            and ``hprod`` are the partial products over ``chosen``, None while it is empty."""
            nonlocal num, den
            for k in range(chosen[-1] + 1 if chosen else 0, q):
                v = ws[k] if weight is None else weight * ws[k]
                for i in chosen:
                    v *= d2[i][k]
                if len(chosen) + 1 < n:
                    visit(chosen + (k,), v, hx[k] if hprod is None else hprod * hx[k])
                else:
                    num += (v if hprod is None else v * hprod) * hx[k]
                    den += v

        visit((), None, None)
        # ordered-index sums omit the same n! factor from both integrals
        return ensure_finite(num / den, "ensemble average")

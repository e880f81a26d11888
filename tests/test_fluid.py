"""Band endpoints, equilibrium density, and the continuum recurrence limits."""
from fractions import Fraction

import mpmath
import pytest

from hankelpert.errors import DomainError
from hankelpert.fluid import (EquilibriumDensity, band_kernel,
                              equilibrium_density, fluid_recurrence,
                              support_endpoints, support_endpoints_shifted)
from hankelpert.jacobi import (JacobiParams, jacobi_alpha_n_exact,
                               jacobi_beta_n_exact)
from hankelpert.precision import Precision

P64 = Precision(64)
LEG = JacobiParams(0, 0)


def test_flat_weight_band_is_whole_interval():
    # both exponents vanish, so nothing confines the charge short of +/-1
    for n in (1, 3, 10):
        si = support_endpoints(n, LEG)
        assert si.a_n == -1 and si.b_n == 1


def test_shifted_variant_flat_weight_closed_form():
    with mpmath.workdps(40):
        for n in range(1, 7):
            si = support_endpoints_shifted(n, LEG)
            want = (mpmath.mpf(n) / (n + 1)) ** 2
            assert float(abs(si.a_n + want)) < 1e-30
            assert float(abs(si.b_n - want)) < 1e-30


def test_endpoint_conditions_hold_exactly():
    """The closed-form endpoints satisfy both charge-balance conditions:
    alpha = (n+s/2) sqrt((1-a)(1-b)) and beta = (n+s/2) sqrt((1+a)(1+b))."""
    with mpmath.workdps(70):
        for a_s, b_s in (("1", "0"), ("1/2", "1/2"), ("2", "1")):
            jp = JacobiParams(a_s, b_s)
            al, be = jp.ab_mpf()
            s = al + be
            for n in (1, 2, 5, 20, 50):
                si = support_endpoints(n, jp)
                r1 = al - (n + s / 2) * mpmath.sqrt((1 - si.a_n) * (1 - si.b_n))
                r2 = be - (n + s / 2) * mpmath.sqrt((1 + si.a_n) * (1 + si.b_n))
                assert float(abs(r1)) < 1e-55, f"({a_s},{b_s}) n={n}"
                assert float(abs(r2)) < 1e-55, f"({a_s},{b_s}) n={n}"


def test_shifted_variant_breaks_charge_balance():
    """The variant with the widened denominator leaves a band gap of order 1/n
    instead of 1/n^2, so its charge-balance residual grows like sqrt(n).
    Documented here so nobody mistakes the two forms for interchangeable."""
    with mpmath.workdps(50):
        jp = JacobiParams(2, 1)
        al, be = jp.ab_mpf()
        s = al + be
        res = []
        for n in (2, 8, 32):
            si = support_endpoints_shifted(n, jp)
            r1 = al - (n + s / 2) * mpmath.sqrt((1 - si.a_n) * (1 - si.b_n))
            res.append(abs(r1))
        assert float(res[0]) > 1
        assert res[0] < res[1] < res[2]
        # both variants still agree on where the band goes: gap to 1 closes
        gap = abs(1 - support_endpoints_shifted(32, jp).b_n)
        assert float(gap) < 0.2


def test_recurrence_limits_match_band_geometry():
    with mpmath.workdps(70):
        jp = JacobiParams(1, 2)
        n = 7
        si = support_endpoints(n, jp)
        at, bt = fluid_recurrence(n, jp)
        assert float(abs(at - si.center)) < 1e-55
        assert float(abs(bt - ((si.b_n - si.a_n) / 4) ** 2)) < 1e-55


def test_recurrence_limits_flat_weight():
    with mpmath.workdps(40):
        at, bt = fluid_recurrence(9, LEG)
        assert float(abs(at)) < 1e-35
        assert float(abs(bt - mpmath.mpf(1) / 4)) < 1e-35


def test_upper_endpoint_approaches_one_monotonically():
    with mpmath.workdps(40):
        jp = JacobiParams(1, Fraction(1, 2))
        gaps = [abs(1 - support_endpoints(n, jp).b_n) for n in range(1, 11)]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        gaps = [abs(1 - support_endpoints_shifted(n, LEG).b_n) for n in range(1, 11)]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_band_center_and_width_expansions():
    """n^2 * center -> (b^2-a^2)/4 and n^2 * (1-halfwidth) -> (a^2+b^2)/4."""
    with mpmath.workdps(50):
        jp = JacobiParams(1, 2)
        n = 100
        si = support_endpoints(n, jp)
        c = float(n * n * si.center / (mpmath.mpf(3) / 4))
        assert abs(c - 1) < 0.05
        w = float(n * n * (1 - si.halfwidth) / (mpmath.mpf(5) / 4))
        assert abs(w - 1) < 0.05


def test_recurrence_deviation_rates_at_large_n():
    """Continuum minus true coefficients: the beta gap closes like -1/(16 n^2);
    the alpha gap closes like (b^2-a^2)/(4 n^3) but carries a 1/n correction
    of relative size (3s+2)/(2n), still 2.46% at n = 100."""
    with mpmath.workdps(50):
        n = 100
        at, bt = fluid_recurrence(n, LEG)
        bn = jacobi_beta_n_exact(n, LEG)
        dev = n * n * (bt - mpmath.mpf(bn.numerator) / bn.denominator)
        assert abs(float(dev / (mpmath.mpf(-1) / 16) - 1)) < 0.01

        jp = JacobiParams(1, 0)
        for n, window in ((100, (0.024, 0.025)), (200, (0.012, 0.0125))):
            at, _ = fluid_recurrence(n, jp)
            an = jacobi_alpha_n_exact(n, jp)
            dev = n**3 * (at - mpmath.mpf(an.numerator) / an.denominator)
            rel = abs(float(dev / (mpmath.mpf(-1) / 4) - 1))
            assert window[0] < rel < window[1], f"n={n}: {rel}"


def test_endpoint_gap_expansions():
    with mpmath.workdps(50):
        jp = JacobiParams(1, 2)
        n = 100
        si = support_endpoints(n, jp)
        # 1 + a_n ~ beta^2/(2 n^2), 1 - b_n ~ alpha^2/(2 n^2)
        assert abs(float(n * n * (1 + si.a_n) / 2) - 1) < 0.05
        assert abs(float(n * n * (1 - si.b_n) / mpmath.mpf("0.5")) - 1) < 0.05


def test_density_symmetric_weight():
    with mpmath.workdps(50):
        si = support_endpoints(6, JacobiParams("3/2", "3/2"))
        for xs in ("0.3", "0.71"):
            x = mpmath.mpf(xs)
            assert float(abs(equilibrium_density(x, si)
                             - equilibrium_density(-x, si))) < 1e-40


def test_density_positive_inside_zero_at_edges():
    with mpmath.workdps(50):
        si = support_endpoints(4, JacobiParams(1, Fraction(1, 2)))
        lo, hi = si.a_n, si.b_n
        for i in range(1, 16):
            x = lo + (hi - lo) * i / 16
            assert equilibrium_density(x, si) > 0
        assert equilibrium_density(lo, si) == 0
        assert equilibrium_density(hi, si) == 0
        with pytest.raises(DomainError):
            equilibrium_density(hi + (1 - hi) / 2 + mpmath.mpf(1), si)


def test_band_kernel_matches_direct_ratio():
    # kernel carries the substitution Jacobian: (b-x)(x-a)/(1-x^2) in t-form
    with mpmath.workdps(60):
        si = support_endpoints(5, JacobiParams(1, 0))
        for ts in ("0.3", "-1.1", "0.9"):
            t = mpmath.mpf(ts)
            x, ker = band_kernel(si, t)
            direct = (si.b_n - x) * (x - si.a_n) / (1 - x * x)
            assert float(abs(ker - direct)) < 1e-45, ts


def test_density_mass_equals_matrix_size():
    jp = JacobiParams(Fraction(1, 2), 1)
    for n in (1, 5):
        dens = EquilibriumDensity(support_endpoints(n, jp))
        mass = dens.mass(P64)
        assert abs(float(mass / n - 1)) < 1e-10, f"n={n}"


def test_density_center_value_approaches_limit():
    # sigma(0) -> (n + s/2)/pi as the band fills the interval
    with mpmath.workdps(50):
        jp = JacobiParams(1, 2)
        n = 200
        si = support_endpoints(n, jp)
        val = equilibrium_density(mpmath.mpf(0), si)
        limit = (n + mpmath.mpf(3) / 2) / mpmath.pi
        assert abs(float(val / limit - 1)) < 0.01


def test_band_requires_positive_size():
    with pytest.raises(DomainError):
        support_endpoints(0, LEG)


@pytest.mark.parametrize("n, exponent, message", [
    (0, "0", "size must be >= 1, got 0"),
    (1, "-9/10", "the band needs n + alpha + beta > 0, got n = 1, alpha + beta = -9/5"),
    (1, "-1/2", "the band needs n + alpha + beta > 0, got n = 1, alpha + beta = -1")])
def test_recurrence_refuses_a_size_without_a_band(n, exponent, message):
    """The continuum pair reads the same band: no band, no center or quarter-width."""
    with pytest.raises(DomainError) as err:
        fluid_recurrence(n, JacobiParams(exponent, exponent))
    assert str(err.value) == message

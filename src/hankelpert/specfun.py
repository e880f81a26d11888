"""Log-Gamma and log-Barnes-G.

The Barnes G-function is the entire function satisfying

    G(z+1) = Gamma(z) * G(z),    G(1) = 1.

Both logarithms are evaluated through mpmath's implementations, wrapped so
every result honours the precision contract (8 guard digits) and is checked
finite. The wrappers are the single point through which the rest of the
package touches these special functions, so the difference-equation and
doubling invariants in the test suite certify every downstream consumer.
"""
from __future__ import annotations

import mpmath

from .errors import DomainError
from .precision import BigReal, Precision, ensure_finite, to_mpf


def log_gamma(z, p: Precision) -> BigReal:
    """ln Gamma(z) for real z > 0."""
    with p.workdps():
        zv = to_mpf(z)
        if not zv > 0:
            raise DomainError(f"log_gamma requires z > 0, got {zv}")
        return ensure_finite(mpmath.loggamma(zv), "log_gamma")


def log_barnes_g(z, p: Precision) -> BigReal:
    """ln G(z) for real z > 0, G the Barnes G-function."""
    with p.workdps():
        zv = to_mpf(z)
        if not zv > 0:
            raise DomainError(f"log_barnes_g requires z > 0, got {zv}")
        # G(z) > 0 on z > 0, so the log of mpmath's direct evaluation is safe;
        # mpf exponents are unbounded, huge G values do not overflow.
        return ensure_finite(mpmath.log(mpmath.barnesg(zv)), "log_barnes_g")

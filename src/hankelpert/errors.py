"""Exception hierarchy shared across the package."""


class HankelpertError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HankelpertError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PrecisionError(HankelpertError, ArithmeticError):
    """A computation failed in a way that signals insufficient working precision.

    Raised instead of returning silently wrong values: nonpositive pivots,
    recurrence breakdowns, non-finite intermediate results. A factorization
    that breaks down at index k passes ``leading``, the coefficients it
    found before k, which still serve every size up to k.
    """

    def __init__(self, message, leading=()):
        super().__init__(message)
        self.leading = tuple(leading)


class RootFindError(PrecisionError):
    """A quadrature node search failed to converge; carries diagnostics."""


class ResolutionError(PrecisionError):
    """An expansion did not reach the required tail bound at the maximum resolution."""


class ParseError(HankelpertError, ValueError):
    """Syntax error in a perturbation expression.

    ``position`` is the byte offset of the offending token, ``expected``
    the set of token descriptions that would have been accepted there.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(message)
        self.position = position
        self.expected = tuple(expected)


class EvalDomainError(DomainError):
    """A perturbation expression hit a domain fault (log/sqrt/pow) during evaluation."""


class PositivityError(HankelpertError, ValueError):
    """A perturbation failed the positivity check; carries the witnessing point."""

    def __init__(self, message, witness=None, value=None):
        super().__init__(message)
        self.witness = witness
        self.value = value

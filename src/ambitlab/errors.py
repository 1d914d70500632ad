"""Shared exception types."""


class QuadratureError(RuntimeError):
    """Raised when a quadrature rule fails its convergence/agreement check.

    Carries the last estimate so callers can log it alongside the failure,
    and as ``job`` the index of the failed job in the batch that raised it.
    """

    def __init__(self, message, estimate=None, job=None):
        super().__init__(message)
        self.estimate = estimate
        self.job = job


class AdmissibilityError(ValueError):
    """Raised when a thinning exponent lies outside the admissible range
    and no explicit override was requested."""


class NotPSDError(ValueError):
    """Raised when a covariance matrix has an eigenvalue below its negative
    floor, so no Gaussian vector can have it as covariance."""


class FloatRangeError(ArithmeticError):
    """Raised when a computed value leaves the range of double precision:
    it would overflow to inf, or a positive value would underflow to 0."""

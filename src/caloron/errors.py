"""Exception types shared across the package."""


class CaloronError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CaloronError):
    """Malformed or inconsistent Nahm data configuration."""


class IntegrationError(CaloronError):
    """A transfer, loop or Green's block could not be computed accurately:
    the adaptive ODE integrator failed (step underflow / blow-up), an
    interval exponential was non-finite or inaccurate, a loop was
    non-finite, the diagonal limits at a marked point disagreed, a boundary
    Green's matrix lost hermiticity, or an oracle quadrature did not
    converge."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class IrregularPointError(CaloronError):
    """The circle monodromy has (numerically) a unit eigenvalue at this t,
    so the Green's function does not exist there."""

    def __init__(self, message, gap=None, cond=None):
        super().__init__(message)
        self.gap = gap
        self.cond = cond


class PositivityError(CaloronError):
    """A matrix that must be positive definite is not (within tolerance)."""

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue

"""Exception types shared across the package."""


class NggError(Exception):
    """Base class for all package errors."""


class DomainError(NggError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ModelError(NggError, ValueError):
    """A model ingredient is inconsistent (e.g. an envelope leaving [0, 1])."""


class SolverError(NggError, RuntimeError):
    """The underlying numerical solver failed to converge."""


class QuadratureError(NggError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the last (unconverged) estimate in ``last_estimate``.
    """

    def __init__(self, message, last_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate

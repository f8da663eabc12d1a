"""Exception types shared across the package, and the rule of integer arguments."""

import numbers


class NggError(Exception):
    """Base class for all package errors."""


class DomainError(NggError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


def check_integer(value, label: str, least: int) -> None:
    """Refuse with ``DomainError`` a ``value`` that is not an integer of at
    least ``least``, such as a count, a size, a degree or a seed: a bool or
    a float such as ``100.0`` is refused, a numpy integer accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{label} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{label} must be >= {least}, got {value}")


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

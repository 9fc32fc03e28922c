"""Exception types used across the package."""


class BrspecError(Exception):
    """Base class for all package errors."""


class DomainError(BrspecError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(BrspecError, ValueError):
    """Invalid configuration value or unknown configuration key."""


class NumericalError(BrspecError, RuntimeError):
    """A numerical procedure failed to reach its accuracy or convergence target.

    Carries whatever partial result was available in ``payload``.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload

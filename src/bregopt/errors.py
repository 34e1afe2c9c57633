"""Exception types shared across the package."""


class BregoptError(Exception):
    """Base class for all package errors."""


class DomainError(BregoptError):
    """A point lies outside the (interior of the) kernel domain."""


class ValidationError(BregoptError, ValueError):
    """Invalid configuration, flag combination, or spec document."""


class NumericalError(BregoptError):
    """A numerical invariant broke down (non-finite values, bad denominators)."""

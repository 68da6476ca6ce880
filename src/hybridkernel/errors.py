"""Shared exception types."""


class HybridKernelError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(HybridKernelError):
    pass


class NotSymmetric(HybridKernelError):
    pass


class NotPositiveDefinite(HybridKernelError):
    pass


class NotPsd(HybridKernelError):
    pass


class DomainError(HybridKernelError):
    pass


class NoBracket(HybridKernelError):
    pass


class GridMismatch(HybridKernelError):
    pass


class NonFinite(HybridKernelError):
    pass


class ConfigError(HybridKernelError):
    pass


class NotConverged(HybridKernelError):
    """An iterative solver stopped at its iteration cap above its tolerance."""

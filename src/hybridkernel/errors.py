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


class MalformedModel(HybridKernelError):
    """A model JSON that is not JSON, lacks a block, or holds a ragged array or a bad value."""


class NotConverged(HybridKernelError):
    """A solver reached its step cap before it met its stopping test."""

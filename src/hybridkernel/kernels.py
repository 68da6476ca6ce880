"""Gaussian kernels and Gram/cross-Gram matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch


def _as_points(points) -> np.ndarray:
    """Normalize a point collection to an (n, d) array."""
    a = np.asarray(points, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a[:, None]
    elif a.ndim != 2:
        raise DimensionMismatch(f"points must be at most 2-dimensional, got ndim={a.ndim}")
    if a.shape[0] == 0:
        raise DimensionMismatch("empty point set")
    return a


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel exp(-gamma * ||x - x'||^2)."""

    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError("bandwidth gamma must be finite and positive")

    def to_dict(self) -> dict:
        return {"family": "gaussian", "gamma": self.gamma}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        if not isinstance(d, dict) or d.get("family", "gaussian") != "gaussian":
            raise ValueError(f"need a gaussian kernel object, got {d!r}")
        if isinstance(d["gamma"], bool) or not isinstance(d["gamma"], (int, float)):
            raise ValueError(f"kernel gamma must be a number, got {d['gamma']!r}")
        return cls(gamma=float(d["gamma"]))


def sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of (n, d) A and (m, d) B, summed
    in coordinate order as scipy's cdist(A, B, "sqeuclidean") sums them: same bits."""
    D = np.subtract.outer(A[:, 0], B[:, 0])
    D *= D
    for k in range(1, A.shape[1]):
        T = np.subtract.outer(A[:, k], B[:, k])
        T *= T
        D += T
    return D


def _gaussian(k: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    D = sq_distances(A, B)
    D *= -k.gamma
    return np.exp(D, out=D)


def gram(k: KernelSpec, points) -> np.ndarray:
    """Symmetric Gram matrix G_ij = k(x_i, x_j)."""
    X = _as_points(points)
    return _gaussian(k, X, X)  # exactly symmetric: (a-b)^2 == (b-a)^2


def cross_gram(k: KernelSpec, a_points, b_points) -> np.ndarray:
    """Rectangular kernel matrix, entry (i, j) = k(a_i, b_j)."""
    A = _as_points(a_points)
    B = _as_points(b_points)
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"point dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    return _gaussian(k, A, B)

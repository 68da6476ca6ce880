"""Gaussian kernels and Gram/cross-Gram matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

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
        if not self.gamma > 0:
            raise ValueError("bandwidth gamma must be positive")

    def to_dict(self) -> dict:
        return {"family": "gaussian", "gamma": self.gamma}

    @classmethod
    def from_dict(cls, d: dict) -> "KernelSpec":
        if d.get("family", "gaussian") != "gaussian":
            raise ValueError(f"unsupported kernel family {d['family']!r}")
        return cls(gamma=float(d["gamma"]))


def gram(k: KernelSpec, points) -> np.ndarray:
    """Symmetric Gram matrix G_ij = k(x_i, x_j)."""
    X = _as_points(points)
    G = cdist(X, X, metric="sqeuclidean")  # exactly symmetric: (a-b)^2 == (b-a)^2
    G *= -k.gamma
    return np.exp(G, out=G)


def cross_gram(k: KernelSpec, a_points, b_points) -> np.ndarray:
    """Rectangular kernel matrix, entry (i, j) = k(a_i, b_j)."""
    A = _as_points(a_points)
    B = _as_points(b_points)
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatch(f"point dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    return np.exp(-k.gamma * cdist(A, B, metric="sqeuclidean"))

"""Static hybrid models h(x) = Phi(x)' w + sum_i c_i k(x_i, x).

The three static settings are one model family and differ only in the
feature map Phi and in how the weights w are fit:

  (i)   reference KRR: Phi = h_ref, one column with fixed weight 1;
  (ii)  subspace: Phi = interpretable features, w = theta by ridge;
  (iii) mixture: Phi = (h(x | theta_1), ..., h(x | theta_m)), w = b on the
        simplex, by a simplex QP in b alone: the kernel coefficients are
        eliminated through the Gram factor.

A ``Design`` holds the lambda-independent blocks of one dataset, the
low-rank factor of the training Gram matrix among them. Drivers build it once
per sweep; each fit then does only the lambda-dependent solves, and ``rmse``
scores a sweep's models on the design. The subspace fit solves in a
``JointBuffer``, which a sweep builds once per concurrent fit.
``HybridModel.predict`` is the only place that evaluates the features at new
points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import simplex_qp
from .errors import DimensionMismatch, DomainError, MalformedModel
from .kernels import KernelSpec, _as_points, cross_gram, gram, sq_distances
from .linalg import LowRankFactor, _tile_pairs, low_rank_psd_factor, solve_shifted, solve_spd

DUPLICATE_TOL = 1e-9


@dataclass(frozen=True)
class Dataset:
    """Paired (input, target) sample; inputs are stored as an (n, d) array."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.inputs, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        y = np.asarray(self.targets, dtype=float).ravel()
        if X.shape[0] != y.size:
            raise DimensionMismatch(f"{X.shape[0]} inputs vs {y.size} targets")
        if X.shape[0] == 0:
            raise DimensionMismatch("empty dataset")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DomainError("dataset contains NaN/Inf")
        # 1-D: the nearest pair is adjacent once sorted; else every pair once, as in pdist
        gaps = (np.diff(np.sort(X[:, 0])) if X.shape[1] == 1
                else np.sqrt(sq_distances(X, X)[np.triu_indices(X.shape[0], 1)]))
        if X.shape[0] > 1 and gaps.min() < DUPLICATE_TOL:
            raise DomainError("duplicate inputs (pairwise distance < 1e-9)")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "targets", y)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def feature_columns(features: Callable, X: np.ndarray) -> np.ndarray:
    """Phi at the rows of an (n, d) input array, as an (n, p) array.

    One-dimensional inputs reach Phi as a flat vector of n points.
    """
    xs = X[:, 0] if X.shape[1] == 1 else X
    return np.asarray(features(xs), dtype=float).reshape(X.shape[0], -1)


def effective_parameter(weights, theta_samples) -> np.ndarray:
    """Weighted average of the sampled parameters; lies in their convex hull."""
    return np.asarray(weights, dtype=float) @ np.asarray(theta_samples, dtype=float)


@dataclass(frozen=True)
class HybridModel:
    """h(x) = Phi(x)' w + sum_i c_i k(x_i, x)."""

    features: Callable  # Phi; code, so to_json leaves it out
    weights: np.ndarray
    anchors: np.ndarray  # (n, d) training inputs x_i
    coeffs: np.ndarray
    kernel: KernelSpec

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        X = x.reshape(-1, 1) if x.ndim < 2 else x
        out = (feature_columns(self.features, X) @ self.weights
               + cross_gram(self.kernel, X, self.anchors) @ self.coeffs)
        return float(out[0]) if x.ndim == 0 else out

    def to_json(self, **meta) -> str:
        """The fitted numbers as JSON, after the extra keys in `meta`."""
        return json.dumps({**meta,
                           "kernel": self.kernel.to_dict(),
                           "weights": self.weights.tolist(),
                           "anchors": self.anchors.tolist(),
                           "coeffs": self.coeffs.tolist()})

    @classmethod
    def from_json(cls, text: str, features: Callable) -> "HybridModel":
        """Inverse of to_json; the caller supplies the feature map. Raises
        MalformedModel, also for a non-finite entry, or DimensionMismatch unless
        coeffs match the anchors and weights match the feature columns."""
        try:
            doc = json.loads(text)
            weights, anchors, coeffs = (np.asarray(doc[k], dtype=float)
                                        for k in ("weights", "anchors", "coeffs"))
            kernel = KernelSpec.from_dict(doc["kernel"])
        except (ValueError, KeyError, TypeError) as e:
            raise MalformedModel(f"not a HybridModel document: {e!r}") from e
        if not all(np.isfinite(a).all() for a in (weights, anchors, coeffs)):
            raise MalformedModel("HybridModel document holds a non-finite entry")
        if coeffs.shape != anchors.shape[:1]:
            raise DimensionMismatch(f"coeffs {coeffs.shape} for anchors {anchors.shape}")
        p = feature_columns(features, _as_points(anchors)[:1]).shape[1]
        if weights.shape != (p,):
            raise DimensionMismatch(f"weights {weights.shape} for {p} feature columns")
        return cls(features=features, weights=weights, anchors=anchors, coeffs=coeffs,
                   kernel=kernel)


@dataclass(frozen=True)
class Design:
    """The lambda-independent blocks of one dataset under one feature map.

    F = Phi(X) and K = k(X, anchors): the Gram matrix G on the training set
    (anchors = X), the cross-Gram against the training inputs on any other
    set. factor is the low-rank factor of G (linalg.low_rank_psd_factor),
    from which the reference and mixture fits solve their whole grid; a design
    on another set has none. The subspace fit's D'D lives in its joint
    buffers, not here: a design holds no (n + p)^2 array besides K, and the
    pool threads that share it never write it.
    """

    features: Callable
    kernel: KernelSpec
    inputs: np.ndarray
    anchors: np.ndarray
    F: np.ndarray
    K: np.ndarray
    y: np.ndarray
    factor: LowRankFactor = None

    def at(self, data: Dataset) -> "Design":
        """The same model space on another dataset, e.g. for validation RMSE."""
        return _design(self.features, self.kernel, data.inputs, self.anchors,
                       cross_gram(self.kernel, data.inputs, self.anchors),
                       data.targets, None)

    def with_features(self, features: Callable) -> "Design":
        """This design's data and kernel block under another feature map."""
        return _design(features, self.kernel, self.inputs, self.anchors, self.K,
                       self.y, self.factor)

    def model(self, weights, coeffs) -> HybridModel:
        return HybridModel(features=self.features, weights=weights,
                           anchors=self.anchors, coeffs=coeffs, kernel=self.kernel)


def _design(features, kernel, inputs, anchors, K, y, factor) -> Design:
    return Design(features=features, kernel=kernel, inputs=inputs, anchors=anchors,
                  F=feature_columns(features, inputs), K=K, y=y, factor=factor)


def design(data: Dataset, features: Callable, kernel: KernelSpec) -> Design:
    """Training design: feature columns, Gram matrix and its low-rank factor
    of `data`."""
    G = gram(kernel, data.inputs)
    return _design(features, kernel, data.inputs, data.inputs, G, data.targets,
                   low_rank_psd_factor(G))


class JointBuffer(NamedTuple):
    """The memory one subspace fit solves in, on a training design.

    M is a C-ordered (n + p)^2 array whose strict lower triangle holds D'D of
    D = [F, G]. Its Fortran view M' is what dpotrf('L') factors: the fit
    writes the joint matrix into M's upper triangle, the one dpotrf reads and
    overwrites, and leaves the strict lower one alone. DtD_diagonal is D'D's
    diagonal, which each factorization overwrites in M, and Dty is D'y; the
    buffers of one sweep share these two, and each has an M of its own.
    """

    design: Design
    M: np.ndarray
    DtD_diagonal: np.ndarray
    Dty: np.ndarray


def joint_buffers(design: Design, count: int) -> list[JointBuffer]:
    """`count` joint buffers for subspace fits on `design`, one per fit that
    runs at the same time. D'D is numpy's D.T @ D, a symmetric rank-k update
    whose triangle is copied, so its strict lower triangle equals the upper
    one; it goes straight into the first buffer, and the others copy it."""
    if count < 1:
        raise DomainError(f"a sweep needs at least one joint buffer, got {count}")
    D = np.hstack([design.F, design.K])
    M = np.empty((D.shape[1], D.shape[1]))
    np.matmul(D.T, D, out=M)
    first = JointBuffer(design, M, M.diagonal().copy(), D.T @ design.y)
    del D  # freed before the copies are allocated
    return [first] + [first._replace(M=M.copy()) for _ in range(count - 1)]


def _joint_triangle(A: np.ndarray, K: np.ndarray, p: int, lambda_r: float) -> None:
    """Write the strict lower triangle of A = M', the Fortran view of a joint
    buffer, from D'D in A's strict upper triangle: D'D itself in the first p
    columns, fl(fl(lambda_r G) + D'D) in the kernel block, tile by tile
    without an n x n temporary. On a diagonal tile A is read and written
    only below the diagonal: the other entries hold a failed factor's values."""
    for i in range(p):
        A[i + 1:, i] = A[i, i + 1:]
    # the kernel block's tile below the diagonal gets the mirror of the tile
    # above it plus lambda_r G': entry (j, i) is M's (i, j), D'D + lambda_r G
    for (up, low, diagonal), (g, _, _) in zip(_tile_pairs(A[p:, p:]), _tile_pairs(K)):
        where = np.tri(*low.shape, -1, dtype=bool) if diagonal else True
        np.copyto(low, up.T, where=where)
        np.add(low, np.multiply(lambda_r, g.T), out=low, where=where)


def fit_reference_krr(design: Design, lams) -> list[HybridModel]:
    """Closed-form ridge fits of the residual around the fixed feature columns,
    each with weight 1: c = (G + lam I)^-1 (y - F 1), one model per lam of the
    grid, every lam a shift of one linalg.solve_shifted call from the design's
    Gram factor."""
    if design.factor is None:
        raise DomainError("reference fits need a training design")
    w = np.ones(design.F.shape[1])
    return [design.model(w, c) for c in solve_shifted(design.K, design.factor, lams,
                                                      design.y - design.F @ w)]


def fit_subspace(design: Design, lambda_theta: float, lambda_r: float,
                 out: JointBuffer = None) -> HybridModel:
    """Joint fit of linear parameters theta and the kernel residual.

    Solves (D'D + blockdiag(l_theta I, l_r G)) [theta; c] = D'y with the
    jittered SPD path, in a joint buffer: `out`, which a sweep reuses across
    fits (DomainError unless joint_buffers built it on this design), or a new
    one. The joint matrix goes into the triangle dpotrf factors, with the
    floating-point operations of D'D + blockdiag(...) on the full matrix, and
    a jittered attempt rewrites it from the buffer's D'D.
    """
    if not (np.isfinite(lambda_theta) and lambda_theta > 0
            and np.isfinite(lambda_r) and lambda_r > 0):
        raise DomainError("regularization weights must be finite and positive, got "
                          f"lambda_theta={lambda_theta}, lambda_r={lambda_r}")
    buf = joint_buffers(design, 1)[0] if out is None else out
    if buf.design is not design:
        raise DomainError("the joint buffer was built for another design")
    p, K = design.F.shape[1], design.K
    diagonal = buf.DtD_diagonal.copy()
    diagonal[:p] += lambda_theta
    diagonal[p:] += lambda_r * K.diagonal()
    refill = partial(_joint_triangle, K=K, p=p, lambda_r=lambda_r)
    refill(buf.M.T)
    buf.M.flat[::buf.M.shape[0] + 1] = diagonal
    sol = solve_spd(buf.M, buf.Dty, overwrite=True, refill=refill)
    return design.model(sol[:p], sol[p:])


def fit_mixture(design: Design, lambdas) -> list[HybridModel]:
    """Simplex-constrained fits of mixture weights b plus kernel residual c,
    one model per lambda_r of the grid `lambdas`.

    Minimizes ||F b + G c - y||^2 + l_r c'G c with b on the simplex, where
    the columns of F are the family members. With A = (G + l_r I)^-1,
    c = A (y - F b) minimizes over c for any b, and leaves l_r (y - F b)'
    A (y - F b): the partial-spline elimination (Wahba 1990, "Spline Models
    for Observational Data"). So b solves the simplex QP S = l_r F'AF,
    s = -2 l_r F'Ay; A [F, y] of every l_r is one shifted solve from the
    design's Gram factor. NotConverged if a QP reaches its step cap.
    """
    if design.factor is None:
        raise DomainError("mixture fits need a training design")
    AFys = solve_shifted(design.K, design.factor, lambdas, np.column_stack([design.F, design.y]))
    models = []
    for lambda_r, AFy in zip(np.asarray(lambdas, dtype=float), AFys):
        AF, Ay = AFy[:, :-1], AFy[:, -1]
        # l_r scales F'Ay before the exact factor -2: -2 l_r alone is -inf past 9e307
        sol = simplex_qp.solve(lambda_r * (design.F.T @ AF), -2.0 * (lambda_r * (design.F.T @ Ay)))
        models.append(design.model(sol.b, Ay - AF @ sol.b))
    return models


def rmse(models: list[HybridModel], design: Design) -> list[float]:
    """RMS error of each model on the design's dataset, from one product of its
    F and K blocks with the models' stacked weights and coefficients (a row
    each); every model must be fit on this design's features, anchors and kernel."""
    if not models or not all(m.features is design.features and m.anchors is design.anchors
                             and m.kernel == design.kernel for m in models):
        raise DomainError("models were not fit on this design's features, anchors and kernel")
    pred = (np.stack([m.weights for m in models]) @ design.F.T
            + np.stack([m.coeffs for m in models]) @ design.K.T)
    return np.sqrt(np.mean((pred - design.y) ** 2, axis=1)).tolist()

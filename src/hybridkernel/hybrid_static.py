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
per sweep, before the lambda pool starts, and the pool threads only read it;
each fit then does only the lambda-dependent solve (the subspace fit's in a
buffer the driver may pass), and ``rmse`` evaluates the design. ``HybridModel.predict`` is the only place that evaluates the
features at new points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import simplex_qp
from .errors import DimensionMismatch, DomainError, MalformedModel
from .kernels import KernelSpec, _as_points, cross_gram, gram, sq_distances
from .linalg import LowRankFactor, low_rank_psd_factor, solve_shifted, solve_spd

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
    from which the reference fit solves every lambda; a design on another set
    has none. DtD and Dty are D'D and D'y of D = [F, G] (numpy's D.T @ D is a
    symmetric rank-k update: exactly symmetric); only the subspace fit reads
    them. The arrays are read, never written, so pool threads share a
    design: the subspace fit factors its joint matrix in a buffer of its own
    or in the `out` its caller passes, never in these.
    """

    features: Callable
    kernel: KernelSpec
    inputs: np.ndarray
    anchors: np.ndarray
    F: np.ndarray
    K: np.ndarray
    y: np.ndarray
    factor: LowRankFactor = None
    DtD: np.ndarray = None
    Dty: np.ndarray = None

    def at(self, data: Dataset) -> "Design":
        """The same model space on another dataset, e.g. for validation RMSE."""
        return _design(self.features, self.kernel, data.inputs, self.anchors,
                       cross_gram(self.kernel, data.inputs, self.anchors),
                       data.targets, None, joint=False)

    def with_features(self, features: Callable, joint: bool = False) -> "Design":
        """This design's data and kernel block under another feature map."""
        return _design(features, self.kernel, self.inputs, self.anchors, self.K,
                       self.y, self.factor, joint)

    def model(self, weights, coeffs) -> HybridModel:
        return HybridModel(features=self.features, weights=weights,
                           anchors=self.anchors, coeffs=coeffs, kernel=self.kernel)


def _design(features, kernel, inputs, anchors, K, y, factor, joint) -> Design:
    F = feature_columns(features, inputs)
    DtD = Dty = None
    if joint:
        D = np.hstack([F, K])
        DtD, Dty = D.T @ D, D.T @ y
    return Design(features=features, kernel=kernel, inputs=inputs, anchors=anchors,
                  F=F, K=K, y=y, factor=factor, DtD=DtD, Dty=Dty)


def design(data: Dataset, features: Callable, kernel: KernelSpec,
           joint: bool = False) -> Design:
    """Training design: feature columns, Gram matrix and its low-rank factor
    of `data`; with joint=True also the normal blocks the subspace fit
    solves."""
    G = gram(kernel, data.inputs)
    return _design(features, kernel, data.inputs, data.inputs, G, data.targets,
                   low_rank_psd_factor(G), joint)


def _joint_matrix(design: Design, lambda_theta: float, lambda_r: float,
                  out: np.ndarray = None) -> np.ndarray:
    """D'D + blockdiag(lambda_theta I, lambda_r G) in every entry of `out` (or
    a new array); exactly symmetric, since the design's D'D and G are."""
    if design.DtD is None:
        raise DomainError("subspace fits need a training design built with joint=True")
    p, dim = design.F.shape[1], design.DtD.shape[0]
    M = np.empty_like(design.DtD) if out is None else out
    if not (isinstance(M, np.ndarray) and M.shape == (dim, dim) and M.dtype == np.float64
            and M.flags.c_contiguous and M.flags.writeable):
        raise DimensionMismatch(f"out must be a writeable C-contiguous float64 ({dim}, {dim}) "
                                "array")
    M[:p] = design.DtD[:p]
    M[p:, :p] = design.DtD[p:, :p]
    M.flat[:p * (dim + 1):dim + 1] += lambda_theta
    # lambda_r G goes straight into its block: no n x n temporary
    np.multiply(lambda_r, design.K, out=M[p:, p:])
    M[p:, p:] += design.DtD[p:, p:]
    return M


def fit_reference_krr(design: Design, lam: float) -> HybridModel:
    """Closed-form ridge fit of the residual around the fixed feature columns,
    each with weight 1: c = (G + lam I)^-1 (y - F 1).

    The solve starts from the design's low-rank factor G ~ W diag(mu) W',
    c = P r with P = W diag(1/(mu + lam)) W' + (I - W W')/lam, and refines
    c += P (r - G c - lam c) against the exact G (linalg.solve_shifted). When
    the factor's remainder trace is at least lam/10, refinement need not
    converge and G + lam I is factored densely, as for lam = 1e-12 at
    n = 2000 (remainder trace 3e-11).
    """
    if design.factor is None:
        raise DomainError("reference fits need a training design")
    w = np.ones(design.F.shape[1])
    return design.model(w, solve_shifted(design.K, design.factor, lam,
                                         design.y - design.F @ w))


def fit_subspace(design: Design, lambda_theta: float, lambda_r: float,
                 out: np.ndarray = None) -> HybridModel:
    """Joint fit of linear parameters theta and the kernel residual.

    Solves (D'D + blockdiag(l_theta I, l_r G)) [theta; c] = D'y with the
    jittered SPD path, which factors the joint matrix in its own memory: a
    new array, or `out`, a buffer a sweep reuses across fits (DimensionMismatch
    unless it is a writeable C-contiguous float64 array of that shape).
    """
    if not (np.isfinite(lambda_theta) and lambda_theta > 0
            and np.isfinite(lambda_r) and lambda_r > 0):
        raise DomainError("regularization weights must be finite and positive, got "
                          f"lambda_theta={lambda_theta}, lambda_r={lambda_r}")
    p = design.F.shape[1]
    sol = solve_spd(_joint_matrix(design, lambda_theta, lambda_r, out), design.Dty,
                    overwrite=True)
    return design.model(sol[:p], sol[p:])


def fit_mixture(design: Design, lambda_r: float) -> HybridModel:
    """Simplex-constrained fit of mixture weights b plus kernel residual c.

    Minimizes ||F b + G c - y||^2 + l_r c'G c with b on the simplex, where
    the columns of F are the family members. With A = (G + l_r I)^-1,
    c = A (y - F b) minimizes over c for any b, and leaves l_r (y - F b)'
    A (y - F b): the partial-spline elimination (Wahba 1990, "Spline Models
    for Observational Data"). So b solves the simplex QP S = l_r F'AF,
    s = -2 l_r F'Ay, where A [F, y] is one shifted solve from the design's
    Gram factor. Raises NotConverged if the QP's active-set method reaches
    its step cap.
    """
    if design.factor is None:
        raise DomainError("mixture fits need a training design")
    AFy = solve_shifted(design.K, design.factor, lambda_r,
                        np.column_stack([design.F, design.y]))
    AF, Ay = AFy[:, :-1], AFy[:, -1]
    # l_r scales F'Ay before the exact factor -2: -2 l_r alone is -inf above
    # about 9e307
    sol = simplex_qp.solve(lambda_r * (design.F.T @ AF), -2.0 * (lambda_r * (design.F.T @ Ay)))
    return design.model(sol.b, Ay - AF @ sol.b)


def rmse(model: HybridModel, design: Design) -> float:
    """RMS error of the model on the design's dataset, from its F and K blocks;
    the model must be fit on this design's feature map, anchors and kernel."""
    if not (model.features is design.features and model.anchors is design.anchors
            and model.kernel == design.kernel):
        raise DomainError("model was not fit on this design's features, anchors and kernel")
    pred = design.F @ model.weights + design.K @ model.coeffs
    return float(np.sqrt(np.mean((pred - design.y) ** 2)))

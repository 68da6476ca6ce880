"""Static hybrid models h(x) = Phi(x)' w + sum_i c_i k(x_i, x).

The three static settings are one model family and differ only in the
feature map Phi and in how the weights w are fit:

  (i)   reference KRR: Phi = h_ref, one column with fixed weight 1;
  (ii)  subspace: Phi = interpretable features, w = theta by ridge;
  (iii) mixture: Phi = (h(x | theta_1), ..., h(x | theta_m)), w = b on the
        simplex.

A ``Design`` holds the lambda-independent blocks of one dataset. Drivers
build it once per sweep; each fit then does only the lambda-dependent solve,
and ``rmse`` evaluates the design. ``HybridModel.predict`` is the only place
that evaluates the features at new points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial.distance import pdist

from . import simplex_qp
from .errors import DimensionMismatch, DomainError, MalformedModel, NotConverged
from .kernels import KernelSpec, cross_gram, gram
from .linalg import solve_spd

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
        # for 1-D inputs the nearest pair is adjacent once sorted
        gaps = np.diff(np.sort(X[:, 0])) if X.shape[1] == 1 else pdist(X)
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


def family_features(family: Callable, theta_samples) -> Callable:
    """Phi(x) = (h(x | theta_1), ..., h(x | theta_m)) for a family h(x, theta)."""
    thetas = np.asarray(theta_samples, dtype=float)
    thetas = thetas.reshape(thetas.shape[0], -1)

    def features(x):
        return np.column_stack([np.asarray(family(x, th), dtype=float).ravel()
                                for th in thetas])

    return features


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
        MalformedModel, or DimensionMismatch unless coeffs match the anchors."""
        try:
            doc = json.loads(text)
            anchors, coeffs = (np.asarray(doc[k], dtype=float) for k in ("anchors", "coeffs"))
            if coeffs.shape != anchors.shape[:1]:
                raise DimensionMismatch(f"coeffs {coeffs.shape} for anchors {anchors.shape}")
            return cls(features=features, weights=np.asarray(doc["weights"], dtype=float),
                       anchors=anchors, coeffs=coeffs, kernel=KernelSpec.from_dict(doc["kernel"]))
        except (ValueError, KeyError, TypeError) as e:
            raise MalformedModel(f"not a HybridModel document: {e!r}") from e


@dataclass(frozen=True)
class Design:
    """The lambda-independent blocks of one dataset under one feature map.

    F = Phi(X) and K = k(X, anchors): the Gram matrix G on the training set
    (anchors = X), the cross-Gram against the training inputs on any other
    set. DtD and Dty are D'D and D'y of D = [F, G]; only the joint fits need
    them. The arrays are read, never written, so pool threads share a design.
    """

    features: Callable
    kernel: KernelSpec
    inputs: np.ndarray
    anchors: np.ndarray
    F: np.ndarray
    K: np.ndarray
    y: np.ndarray
    DtD: np.ndarray = None
    Dty: np.ndarray = None

    def at(self, data: Dataset) -> "Design":
        """The same model space on another dataset, e.g. for validation RMSE."""
        return _design(self.features, self.kernel, data.inputs, self.anchors,
                       cross_gram(self.kernel, data.inputs, self.anchors),
                       data.targets, joint=False)

    def with_features(self, features: Callable, joint: bool = False) -> "Design":
        """This design's data and kernel block under another feature map."""
        return _design(features, self.kernel, self.inputs, self.anchors, self.K,
                       self.y, joint)

    def model(self, weights, coeffs) -> HybridModel:
        return HybridModel(features=self.features, weights=weights,
                           anchors=self.anchors, coeffs=coeffs, kernel=self.kernel)


def _design(features, kernel, inputs, anchors, K, y, joint) -> Design:
    F = feature_columns(features, inputs)
    DtD = Dty = None
    if joint:
        D = np.hstack([F, K])
        DtD, Dty = D.T @ D, D.T @ y
        DtD = 0.5 * (DtD + DtD.T)
    return Design(features=features, kernel=kernel, inputs=inputs, anchors=anchors,
                  F=F, K=K, y=y, DtD=DtD, Dty=Dty)


def design(data: Dataset, features: Callable, kernel: KernelSpec,
           joint: bool = False) -> Design:
    """Training design: feature columns and Gram matrix of `data`; with
    joint=True also the normal blocks the subspace and mixture fits solve."""
    return _design(features, kernel, data.inputs, data.inputs,
                   gram(kernel, data.inputs), data.targets, joint)


def _joint_matrix(design: Design, weight_penalty, lambda_r: float) -> np.ndarray:
    """D'D + blockdiag(weight_penalty, lambda_r G); exactly symmetric when the
    penalty is, since D'D is symmetrized when the design is built."""
    if design.DtD is None:
        raise DomainError("joint fits need a training design built with joint=True")
    p = design.F.shape[1]
    M = design.DtD.copy()
    M[:p, :p] += weight_penalty
    M[p:, p:] += lambda_r * design.K
    return M


def fit_reference_krr(design: Design, lam: float) -> HybridModel:
    """Closed-form ridge fit of the residual around the fixed feature columns,
    each with weight 1: c = (G + lam I)^-1 (y - F 1)."""
    if lam <= 0:
        raise DomainError("lambda must be positive")
    w = np.ones(design.F.shape[1])
    M = design.K.copy()
    M.flat[::M.shape[0] + 1] += lam
    return design.model(w, solve_spd(M, design.y - design.F @ w))


def fit_subspace(design: Design, lambda_theta: float, lambda_r: float) -> HybridModel:
    """Joint fit of linear parameters theta and the kernel residual.

    Solves (D'D + blockdiag(l_theta I, l_r G)) [theta; c] = D'y with the
    jittered SPD path.
    """
    if lambda_theta <= 0 or lambda_r <= 0:
        raise DomainError("regularization weights must be positive")
    p = design.F.shape[1]
    sol = solve_spd(_joint_matrix(design, lambda_theta * np.eye(p), lambda_r), design.Dty)
    return design.model(sol[:p], sol[p:])


def fit_mixture(design: Design, theta_gram, lambda_omega: float,
                lambda_r: float) -> HybridModel:
    """Simplex-constrained QP fit of mixture weights plus kernel residual.

    Objective: ||F b + G c - y||^2 + l_omega b'G_theta b + l_r c'G c, where
    the columns of F are the family members. Raises NotConverged if the QP
    stops at its iteration cap.
    """
    if lambda_omega < 0 or lambda_r <= 0:
        raise DomainError("need lambda_omega >= 0 and lambda_r > 0")
    m, n = design.F.shape[1], design.K.shape[1]
    Q = _joint_matrix(design, lambda_omega * np.asarray(theta_gram, dtype=float), lambda_r)
    problem = simplex_qp.SimplexQpProblem(Q=Q, q_lin=-2.0 * design.Dty,
                                          m_simplex=m, n_free=n)
    sol = simplex_qp.solve(problem)
    if not sol.converged:
        raise NotConverged(f"mixture QP at lambda_r={lambda_r} did not converge in "
                           f"{sol.iterations} iterations (KKT residual {sol.kkt_residual:.3e})")
    return design.model(sol.b, sol.c_free)


def objective(design: Design, weights, coeffs, weight_penalty, lambda_r: float) -> float:
    """Direct evaluation of ||F w + G c - y||^2 + w'Pw + lambda_r c'G c, where
    the p x p weight penalty P is l_theta I (subspace) or l_omega G_theta
    (mixture)."""
    w = np.asarray(weights, dtype=float).ravel()
    c = np.asarray(coeffs, dtype=float).ravel()
    resid = design.F @ w + design.K @ c - design.y
    return float(resid @ resid + w @ np.asarray(weight_penalty, dtype=float) @ w
                 + lambda_r * (c @ design.K @ c))


def rmse(model: HybridModel, design: Design) -> float:
    """RMS error of the model on the design's dataset, from its F and K blocks;
    the model must be fit on this design's feature map, anchors and kernel."""
    if not (model.features is design.features and model.anchors is design.anchors
            and model.kernel == design.kernel):
        raise DomainError("model was not fit on this design's features, anchors and kernel")
    pred = design.F @ model.weights + design.K @ model.coeffs
    return float(np.sqrt(np.mean((pred - design.y) ** 2)))

"""Continuous-time Koopman machinery for the CSTR case study: monomial basis,
gEDMD, hybrid generator identification over a simplex of parameterized drifts,
affine closures, and bilinear model assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import simplex_qp
from .errors import DimensionMismatch, DomainError
from .linalg import solve_least_squares, unvec

STATE_BOX = 0.25  # X = [-1/4, 1/4]^2


@dataclass(frozen=True)
class MonomialBasis:
    """psi(x) = (x1, ..., x1^q, x2, x1 x2, ..., x1^{q-1} x2); N = 2q, psi(0) = 0."""

    q: int

    def __post_init__(self):
        if self.q < 1:
            raise DomainError("need q >= 1")

    @property
    def N(self) -> int:
        return 2 * self.q

    @property
    def exponents(self) -> list[tuple[int, int]]:
        return [(k, 0) for k in range(1, self.q + 1)] + [(k, 1) for k in range(self.q)]

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        cols = [x1 ** k for k in range(1, self.q + 1)]
        cols += [x1 ** k * x2 for k in range(self.q)]
        return np.stack(cols, axis=-1)

    def jacobian(self, x) -> np.ndarray:
        """N x 2 matrix of partial derivatives at a single state."""
        x = np.asarray(x, dtype=float).ravel()
        x1, x2 = x[0], x[1]
        J = np.zeros((self.N, 2))
        for row, (i, j) in enumerate(self.exponents):
            J[row, 0] = i * x1 ** (i - 1) * x2 ** j if i >= 1 else 0.0
            J[row, 1] = x1 ** i * j * x2 ** (j - 1) if j >= 1 else 0.0
        return J


@dataclass(frozen=True)
class DriftSample:
    """States in X with their exact drift velocities f0_true(x)."""

    states: np.ndarray
    drift_velocities: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.states, dtype=float)
        V = np.asarray(self.drift_velocities, dtype=float)
        if X.ndim != 2 or X.shape[1] != 2 or V.shape != X.shape:
            raise DimensionMismatch("states and velocities must both be (n, 2)")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V))):
            raise DomainError("sample contains NaN/Inf")
        object.__setattr__(self, "states", X)
        object.__setattr__(self, "drift_velocities", V)

    @property
    def size(self) -> int:
        return self.states.shape[0]


def cstr_f0_true(x) -> np.ndarray:
    """CSTR drift with fractional kinetics; steady state at the origin."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    denom = 3.0 + 2.0 * x1
    if np.any(denom == 0.0):
        raise DomainError("drift undefined at 3 + 2 x1 = 0")
    rate = 9.0 * (1.0 + x1) / (4.0 * denom)
    return np.stack([(3.0 - x1) / 4.0 - rate, -3.0 * (1.0 + x2) / 4.0 + rate], axis=-1)


def cstr_f1(x) -> np.ndarray:
    """Known input channel (throughput convection)."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack([(3.0 - x1) / 4.0, -(1.0 + x2) / 4.0], axis=-1)


def cstr_f0_family(x, theta) -> np.ndarray:
    """Polynomial drift family f0(x|theta), theta in [0, 1]^2."""
    x = np.asarray(x, dtype=float)
    t1, t2 = float(theta[0]), float(theta[1])
    x1, x2 = x[..., 0], x[..., 1]
    kin = t1 * x1 + t2 * x1 * x1
    return np.stack([-x1 / 4.0 - kin, -3.0 * x2 / 4.0 + kin], axis=-1)


def cstr_fields():
    """(f0_true, f1, f0_family) for the reactor example."""
    return cstr_f0_true, cstr_f1, cstr_f0_family


def sample_states(n: int, seed: int, box: float = STATE_BOX) -> np.ndarray:
    """n states uniform on [-box, box]^2, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-box, box, size=(n, 2))


def make_drift_sample(n: int, seed: int, field: Callable = cstr_f0_true) -> DriftSample:
    states = sample_states(n, seed)
    return DriftSample(states=states, drift_velocities=field(states))


def lifted_velocities(sample: DriftSample, basis: MonomialBasis) -> np.ndarray:
    """psi-dot(x_i) = Dpsi(x_i) xdot_i, analytically, one row per sample."""
    return np.stack([basis.jacobian(x) @ v
                     for x, v in zip(sample.states, sample.drift_velocities)])


def gedmd(sample: DriftSample, basis: MonomialBasis) -> np.ndarray:
    """Black-box generator estimate: min_A sum_i ||A psi(x_i) - psi-dot(x_i)||^2."""
    if sample.size < basis.N:
        raise DimensionMismatch(f"need at least N={basis.N} samples, got {sample.size}")
    Psi = basis.eval(sample.states)        # (n, N)
    Psidot = lifted_velocities(sample, basis)
    return solve_least_squares(Psi, Psidot).T


def gedmd_residual_rms(sample: DriftSample, basis: MonomialBasis, A: np.ndarray) -> float:
    Psi = basis.eval(sample.states)
    Psidot = lifted_velocities(sample, basis)
    return float(np.sqrt(np.mean((Psi @ A.T - Psidot) ** 2)))


def hybrid_generator_problem(sample: DriftSample, family: Callable, theta_samples,
                             basis: MonomialBasis, lambda_b: float, lambda_R: float
                             ) -> tuple[simplex_qp.SimplexQpProblem, float]:
    """Stacked QP over (b, vec R) for the hybrid generator fit.

    Returns (problem, constant) with the dropped constant term so that
    problem.objective(b, vec R) + constant equals the primal objective.
    """
    if lambda_b < 0 or lambda_R <= 0:
        raise DomainError("need lambda_b >= 0 and lambda_R > 0")
    theta_samples = np.asarray(theta_samples, dtype=float)
    m = theta_samples.shape[0]
    N = basis.N
    n = sample.size
    Psi = basis.eval(sample.states)
    Psidot = lifted_velocities(sample, basis)

    # Stacked design: row block i is [PsiDot_i, psi_i' (x) I_N] acting on [b; vec R].
    C = np.zeros((n * N, m + N * N))
    target = np.zeros(n * N)
    for i, x in enumerate(sample.states):
        J = basis.jacobian(x)
        C[i * N:(i + 1) * N, :m] = np.column_stack(
            [J @ family(x, th) for th in theta_samples])
        C[i * N:(i + 1) * N, m:] = np.kron(Psi[i][None, :], np.eye(N))
        target[i * N:(i + 1) * N] = Psidot[i]

    Q = C.T @ C
    Q[:m, :m] += lambda_b * np.eye(m)
    Q[m:, m:] += lambda_R * np.eye(N * N)
    Q = 0.5 * (Q + Q.T)
    q_lin = -2.0 * (C.T @ target)
    problem = simplex_qp.SimplexQpProblem(Q=Q, q_lin=q_lin, m_simplex=m, n_free=N * N)
    return problem, float(target @ target)


def fit_hybrid_generator(sample: DriftSample, family: Callable, theta_samples,
                         basis: MonomialBasis, lambda_b: float, lambda_R: float,
                         tol: float = simplex_qp.DEFAULT_TOL,
                         max_iter: int = simplex_qp.DEFAULT_MAX_ITER):
    """Simplex-weighted interpretable drift plus residual generator matrix R.

    Minimizes sum_i ||PsiDot_i b + R psi_i - psi-dot_i||^2
              + lambda_b ||b||^2 + lambda_R ||R||_F^2
    with b on the simplex. Returns (b, R, QpSolution).
    """
    problem, _ = hybrid_generator_problem(sample, family, theta_samples, basis,
                                          lambda_b, lambda_R)
    sol = simplex_qp.solve(problem, tol=tol, max_iter=max_iter)
    N = basis.N
    R = unvec(sol.c_free, N, N)
    return sol.b, R, sol


def hybrid_generator_objective(sample: DriftSample, family: Callable, theta_samples,
                               basis: MonomialBasis, lambda_b: float, lambda_R: float,
                               b, R) -> float:
    """Direct evaluation of the hybrid-generator objective at a given (b, R)."""
    b = np.asarray(b, dtype=float).ravel()
    R = np.asarray(R, dtype=float)
    total = 0.0
    Psidot = lifted_velocities(sample, basis)
    for i, x in enumerate(sample.states):
        J = basis.jacobian(x)
        mix = sum(bj * (J @ family(x, th)) for bj, th in zip(b, np.asarray(theta_samples)))
        resid = mix + R @ basis.eval(x) - Psidot[i]
        total += float(resid @ resid)
    return total + lambda_b * float(b @ b) + lambda_R * float(np.sum(R * R))


def hybrid_prediction_rmse(sample: DriftSample, family: Callable, theta_samples,
                           basis: MonomialBasis, b, R) -> float:
    """RMS error of predicted psi-dot against exact lifted velocities."""
    b = np.asarray(b, dtype=float).ravel()
    theta_samples = np.asarray(theta_samples)
    Psidot = lifted_velocities(sample, basis)
    errs = []
    for i, x in enumerate(sample.states):
        J = basis.jacobian(x)
        mix = sum(bj * (J @ family(x, th)) for bj, th in zip(b, theta_samples))
        errs.append(mix + R @ basis.eval(x) - Psidot[i])
    return float(np.sqrt(np.mean(np.square(errs))))


def default_closure_grid(points_per_axis: int = 33, box: float = STATE_BOX) -> np.ndarray:
    """Deterministic dense lattice on X for closure regressions."""
    axis = np.linspace(-box, box, points_per_axis)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def closure_fit(field: Callable, basis: MonomialBasis, grid=None,
                affine: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares closure Dpsi(x) f(x) ~ beta + Gamma psi(x) on a state lattice.

    With affine=False, beta is returned as the zero vector and only Gamma is fit.
    """
    if grid is None:
        grid = default_closure_grid()
    grid = np.asarray(grid, dtype=float)
    N = basis.N
    if grid.shape[0] < N + 1:
        raise DimensionMismatch("closure grid must have at least N + 1 points")
    Psi = basis.eval(grid)
    targets = np.stack([basis.jacobian(x) @ np.asarray(field(x), dtype=float).ravel()
                        for x in grid])
    if affine:
        design = np.hstack([np.ones((grid.shape[0], 1)), Psi])
        sol = solve_least_squares(design, targets)
        return sol[0].copy(), sol[1:].T
    sol = solve_least_squares(Psi, targets)
    return np.zeros(N), sol.T


def closure_residual(field: Callable, basis: MonomialBasis, beta, Gamma,
                     grid=None) -> float:
    """Max abs deviation of the closure on the grid."""
    if grid is None:
        grid = default_closure_grid()
    grid = np.asarray(grid, dtype=float)
    beta = np.asarray(beta, dtype=float)
    Gamma = np.asarray(Gamma, dtype=float)
    worst = 0.0
    for x in grid:
        truth = basis.jacobian(x) @ np.asarray(field(x), dtype=float).ravel()
        worst = max(worst, float(np.max(np.abs(beta + Gamma @ basis.eval(x) - truth))))
    return worst


@dataclass(frozen=True)
class KoopmanHybridModel:
    """Bilinear lifted model zdot = (sum_j b_j A_j + R) z + sum_k u_k (beta_k + Gamma_k z)."""

    basis: MonomialBasis
    weights: np.ndarray
    residual: np.ndarray
    closure_A: np.ndarray        # (m, N, N)
    input_betas: np.ndarray      # (d_u, N)
    input_gammas: np.ndarray     # (d_u, N, N)
    theta_samples: np.ndarray = None

    def __post_init__(self):
        N = self.basis.N
        b = np.asarray(self.weights, dtype=float).ravel()
        A = np.asarray(self.closure_A, dtype=float)
        R = np.asarray(self.residual, dtype=float)
        betas = np.atleast_2d(np.asarray(self.input_betas, dtype=float))
        gammas = np.asarray(self.input_gammas, dtype=float)
        if gammas.ndim == 2:
            gammas = gammas[None]
        if R.shape != (N, N) or A.shape != (b.size, N, N):
            raise DimensionMismatch("residual/closure matrices inconsistent with basis")
        if betas.shape[1] != N or gammas.shape[1:] != (N, N) or betas.shape[0] != gammas.shape[0]:
            raise DimensionMismatch("input closure shapes inconsistent")
        object.__setattr__(self, "weights", b)
        object.__setattr__(self, "residual", R)
        object.__setattr__(self, "closure_A", A)
        object.__setattr__(self, "input_betas", betas)
        object.__setattr__(self, "input_gammas", gammas)

    @property
    def drift_matrix(self) -> np.ndarray:
        return np.tensordot(self.weights, self.closure_A, axes=1) + self.residual

    def rhs(self, z, u) -> np.ndarray:
        z = np.asarray(z, dtype=float).ravel()
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = self.drift_matrix @ z
        for uk, beta, gamma in zip(u, self.input_betas, self.input_gammas):
            out = out + uk * (beta + gamma @ z)
        return out


def assemble_bilinear(b, R, closure_A, input_closures, basis: MonomialBasis,
                      theta_samples=None) -> KoopmanHybridModel:
    """Bundle fitted weights, residual, and closures into the bilinear model.

    input_closures is a sequence of (beta_k, Gamma_k) pairs, one per channel.
    """
    betas = np.stack([np.asarray(bk, dtype=float).ravel() for bk, _ in input_closures])
    gammas = np.stack([np.asarray(gk, dtype=float) for _, gk in input_closures])
    return KoopmanHybridModel(basis=basis, weights=np.asarray(b, dtype=float),
                              residual=np.asarray(R, dtype=float),
                              closure_A=np.stack([np.asarray(a, dtype=float)
                                                  for a in closure_A]),
                              input_betas=betas, input_gammas=gammas,
                              theta_samples=None if theta_samples is None
                              else np.asarray(theta_samples, dtype=float))


def model_to_json_dict(model: KoopmanHybridModel, lambda_b: float = None,
                       lambda_R: float = None, seeds: dict = None) -> dict:
    d = {
        "q": model.basis.q,
        "weights": model.weights.tolist(),
        "residual": model.residual.tolist(),
        "closure_A": model.closure_A.tolist(),
        "input_betas": model.input_betas.tolist(),
        "input_gammas": model.input_gammas.tolist(),
    }
    if model.theta_samples is not None:
        d["theta_samples"] = model.theta_samples.tolist()
    if lambda_b is not None:
        d["lambda_b"] = lambda_b
    if lambda_R is not None:
        d["lambda_R"] = lambda_R
    if seeds:
        d["seeds"] = seeds
    return d


def model_from_json_dict(d: dict) -> KoopmanHybridModel:
    """Inverse of model_to_json_dict; the fit metadata (lambdas, seeds) is not kept."""
    thetas = d.get("theta_samples")
    return KoopmanHybridModel(basis=MonomialBasis(q=int(d["q"])),
                              weights=np.asarray(d["weights"], dtype=float),
                              residual=np.asarray(d["residual"], dtype=float),
                              closure_A=np.asarray(d["closure_A"], dtype=float),
                              input_betas=np.asarray(d["input_betas"], dtype=float),
                              input_gammas=np.asarray(d["input_gammas"], dtype=float),
                              theta_samples=None if thetas is None
                              else np.asarray(thetas, dtype=float))

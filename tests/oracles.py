"""Reference implementations that only tests use.

The per-point Koopman functions are the scalar paths that the batched code
in ``hybridkernel.koopman`` and ``hybridkernel.control`` replaced; the
property tests check the batched results against them bit for bit.
"""

import numpy as np
import scipy.linalg

from hybridkernel import simplex_qp
from hybridkernel.koopman import DriftSample, MonomialBasis, default_closure_grid
from hybridkernel.linalg import _as_2d, cholesky_with_jitter, solve_least_squares


def kron(A, B) -> np.ndarray:
    """Kronecker product; block (i, j) is a_ij * B."""
    return np.kron(_as_2d(A), _as_2d(B))


def solve_unconstrained(problem: simplex_qp.SimplexQpProblem):
    """Minimizer with the simplex constraint dropped (full space).

    Returns (b, c_free, objective) from the stacked closed form
    z = -Q^{-1} q_lin / 2.
    """
    L, _ = cholesky_with_jitter(problem.Q)
    z = scipy.linalg.cho_solve((L, True), -0.5 * problem.q_lin)
    m = problem.m_simplex
    return z[:m], z[m:], problem.objective(z[:m], z[m:])


def clf_value_closed_form(basis: MonomialBasis, x) -> float:
    """Equivalent closed form ||x||^2 (1 - x1^{2q}) / (1 - x1^2) of ||psi(x)||^2."""
    x = np.asarray(x, dtype=float).ravel()
    x1sq = x[0] * x[0]
    norm_sq = x @ x
    if abs(1.0 - x1sq) < 1e-14:
        return float(norm_sq * basis.q)
    return float(norm_sq * (1.0 - x1sq ** basis.q) / (1.0 - x1sq))


def gedmd_residual_rms(sample: DriftSample, basis: MonomialBasis, A: np.ndarray) -> float:
    Psi = psi(basis, sample.states)
    Psidot = lifted_velocities(sample, basis)
    return float(np.sqrt(np.mean((Psi @ A.T - Psidot) ** 2)))


# ---- per-point oracles of the batched Koopman and control code -------------

def psi(basis: MonomialBasis, x) -> np.ndarray:
    """psi at a state or a stack of states, column by column."""
    x = np.asarray(x, dtype=float)
    x1, x2 = x[..., 0], x[..., 1]
    cols = [x1 ** k for k in range(1, basis.q + 1)]
    cols += [x1 ** k * x2 for k in range(basis.q)]
    return np.stack(cols, axis=-1)


def jacobian(basis: MonomialBasis, x) -> np.ndarray:
    """N x 2 matrix of partial derivatives at a single state."""
    x = np.asarray(x, dtype=float).ravel()
    x1, x2 = x[0], x[1]
    J = np.zeros((basis.N, 2))
    for row, (i, j) in enumerate(basis.exponents):
        J[row, 0] = i * x1 ** (i - 1) * x2 ** j if i >= 1 else 0.0
        J[row, 1] = x1 ** i * j * x2 ** (j - 1) if j >= 1 else 0.0
    return J


def clf_value(basis: MonomialBasis, x) -> float:
    z = psi(basis, np.asarray(x, dtype=float))
    return float(z @ z)


def lifted_velocities(sample: DriftSample, basis: MonomialBasis) -> np.ndarray:
    return np.stack([jacobian(basis, x) @ v
                     for x, v in zip(sample.states, sample.drift_velocities)])


def hybrid_generator_problem(sample: DriftSample, family, theta_samples,
                             basis: MonomialBasis, lambda_b: float, lambda_R: float):
    """(Q, q_lin, constant) of the stacked QP, assembled one point at a time."""
    theta_samples = np.asarray(theta_samples, dtype=float)
    m = theta_samples.shape[0]
    N = basis.N
    n = sample.size
    Psi = psi(basis, sample.states)
    Psidot = lifted_velocities(sample, basis)
    C = np.zeros((n * N, m + N * N))
    target = np.zeros(n * N)
    for i, x in enumerate(sample.states):
        J = jacobian(basis, x)
        C[i * N:(i + 1) * N, :m] = np.column_stack(
            [J @ family(x, th) for th in theta_samples])
        C[i * N:(i + 1) * N, m:] = np.kron(Psi[i][None, :], np.eye(N))
        target[i * N:(i + 1) * N] = Psidot[i]
    Q = C.T @ C
    Q[:m, :m] += lambda_b * np.eye(m)
    Q[m:, m:] += lambda_R * np.eye(N * N)
    Q = 0.5 * (Q + Q.T)
    return Q, -2.0 * (C.T @ target), float(target @ target)


def hybrid_generator_objective(sample: DriftSample, family, theta_samples,
                               basis: MonomialBasis, lambda_b: float, lambda_R: float,
                               b, R) -> float:
    b = np.asarray(b, dtype=float).ravel()
    R = np.asarray(R, dtype=float)
    total = 0.0
    Psidot = lifted_velocities(sample, basis)
    for i, x in enumerate(sample.states):
        J = jacobian(basis, x)
        mix = sum(bj * (J @ family(x, th)) for bj, th in zip(b, np.asarray(theta_samples)))
        resid = mix + R @ psi(basis, x) - Psidot[i]
        total += float(resid @ resid)
    return total + lambda_b * float(b @ b) + lambda_R * float(np.sum(R * R))


def hybrid_prediction_rmse(sample: DriftSample, family, theta_samples,
                           basis: MonomialBasis, b, R) -> float:
    b = np.asarray(b, dtype=float).ravel()
    theta_samples = np.asarray(theta_samples)
    Psidot = lifted_velocities(sample, basis)
    errs = []
    for i, x in enumerate(sample.states):
        J = jacobian(basis, x)
        mix = sum(bj * (J @ family(x, th)) for bj, th in zip(b, theta_samples))
        errs.append(mix + R @ psi(basis, x) - Psidot[i])
    return float(np.sqrt(np.mean(np.square(errs))))


def closure_targets(field, basis: MonomialBasis, grid) -> np.ndarray:
    return np.stack([jacobian(basis, x) @ np.asarray(field(x), dtype=float).ravel()
                     for x in grid])


def closure_fit(field, basis: MonomialBasis, grid=None, affine: bool = False):
    if grid is None:
        grid = default_closure_grid()
    grid = np.asarray(grid, dtype=float)
    Psi = psi(basis, grid)
    targets = closure_targets(field, basis, grid)
    if affine:
        sol = solve_least_squares(np.hstack([np.ones((grid.shape[0], 1)), Psi]), targets)
        return sol[0].copy(), sol[1:].T
    return np.zeros(basis.N), solve_least_squares(Psi, targets).T


def closure_residual(field, basis: MonomialBasis, beta, Gamma, grid=None) -> float:
    if grid is None:
        grid = default_closure_grid()
    grid = np.asarray(grid, dtype=float)
    worst = 0.0
    for x in grid:
        truth = jacobian(basis, x) @ np.asarray(field(x), dtype=float).ravel()
        worst = max(worst, float(np.max(np.abs(beta + Gamma @ psi(basis, x) - truth))))
    return worst


def simulate(dynamics, controller, x0, dt: float, horizon: float):
    """RK4 with zero-order hold, collecting (times, states, controls) in lists."""
    steps = int(round(horizon / dt))
    x = np.asarray(x0, dtype=float).ravel()
    times, states, controls = [0.0], [x.copy()], []
    for step in range(steps):
        u = float(controller(x))
        k1 = np.asarray(dynamics(x, u), dtype=float)
        k2 = np.asarray(dynamics(x + 0.5 * dt * k1, u), dtype=float)
        k3 = np.asarray(dynamics(x + 0.5 * dt * k2, u), dtype=float)
        k4 = np.asarray(dynamics(x + dt * k3, u), dtype=float)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        controls.append(u)
        times.append((step + 1) * dt)
        states.append(x.copy())
    return np.array(times), np.stack(states), np.array(controls)

"""Reference implementations that only tests use.

The per-point Koopman functions are the scalar paths that the batched code
in ``hybridkernel.koopman`` and ``hybridkernel.control`` replaced; the
property tests check the batched results against them bit for bit. The
closed loop on numpy arrays (``simulate``, ``plant`` and the two controllers)
is the path that ``control.simulate`` on Python floats replaced: ``simulate``
calls a plant dynamics(x, u) and a controller(x), where ``control.simulate``
calls ``koopman.cstr_fields`` (the flat (f0_1, f0_2, f1_1, f1_2)) once per RK4
stage, forms f0 + u f1 itself and hands the controller the step's stage-1
fields as controller(x1, x2, f); ``plant`` is that sum on arrays, and the two
controllers here evaluate their own fields. Likewise
the full-matrix SPD factor and the factor of ``linalg``'s private copy, both
from ``np.linalg.cholesky`` (the same ``dpotrf`` as the ctypes bridge), with
solves through scipy's ``cho_solve`` (``copy_cholesky_with_jitter`` and
``copy_solve_spd``), the low-rank factor from scipy's f2py ``dpstrf`` and
``svd`` (``low_rank_psd_factor``), the bubble point that re-evaluates every UNIQUAC
term at each step of a plain bisection (``bisect_window``, which evaluates
every midpoint), the symmetrized Gram matrix, the cross-Gram
matrix and least pairwise distance from scipy's ``cdist`` and ``pdist``, and
the csv.writer trajectory file (``save_csv``) and the trajectory text that
formats its own time column (``trajectory_csv``) are the paths ``linalg``, ``thermo_vle``,
``kernels``, ``hybrid_static.Dataset`` and the CLI's output layer replaced.
``fit_reference_krr`` (a dense Cholesky of G + lam I per lambda) and
``joint_matrix`` and ``fit_subspace`` (the full joint matrix, with its
separate D'D and n x n lambda_r G temporary) are the paths the low-rank
shifted solve and the joint buffers' triangle of ``hybrid_static`` replaced.
``solve_shifted`` (one shift per call, a 1-D right-hand side refined with
matrix-vector products) and ``rmse`` (one model, two matrix-vector products)
are the per-lambda paths that the grid solve ``linalg.solve_shifted`` and the
stacked ``hybrid_static.rmse`` replaced. ``fista_solve``
(accelerated projected gradient, stopped at a KKT tolerance) is the simplex
QP solve that the exact active-set method in ``simplex_qp.solve`` replaced;
the tests hold the exact solve to an objective no higher than FISTA's.
``SimplexQpProblem``, ``eliminate_free_block`` and ``solve_full`` are the
generic QP over a simplex block and a free block, reduced by a dense Schur
complement, that ``simplex_qp`` took before each caller eliminated its free
block by structure; ``mixture_problem`` and ``stacked_generator_problem``
are the two callers' full problems, from which the tests reduce the
structured ones' oracles.
``load_vle_csv`` reads a CSV the
CLI wrote; only tests read one back. ``gedmd``, ``hybrid_generator_objective`` and
``closure_residual`` moved here from ``hybridkernel.koopman``, and
``kernel_eval``, ``vec``, ``unvec`` and ``objective`` from ``kernels``,
``linalg`` and ``hybrid_static``: the package has no caller for them. ``find_azeotrope``
moved here from ``thermo_vle`` for the same reason; its ``brentq`` kept
``scipy.optimize`` in the package's imports. ``excess_gibbs_from_txy`` at one
``VlePoint`` is the per-point Gibbs conversion that the array
``thermo_vle.excess_gibbs_from_txy`` replaced; ``VlePoint`` moved here with it,
as the point type that ``find_azeotrope`` and ``load_vle_csv`` return.
``illinois_root`` is the regula falsi on one function that the array search
``thermo_vle._illinois_roots`` replaced, and ``pressure_excess`` the per-step
pressure excess of ``bubble_point``, against which the array excess is held.
The oracles' vapor pressures come from ``antoine_psat``, Python's ``**`` on
floats, which ``thermo_vle.antoine_psat``'s ``np.float_power`` replaced.
``psi_at``, ``jacobian_at`` and ``lifted_rhs`` moved here from
``MonomialBasis.eval_at``, ``jacobian_at`` and ``KoopmanHybridModel.rhs`` once
the controllers took V's rates from the gradient of V and from the model's
polynomials; ``clf_rates_fields`` and
``clf_rates_model`` are the numpy rates those replaced (the package's
``clf_rates_model`` on floats went too: the model controller reads
``KoopmanHybridModel.clf_rate_coeffs`` through ``koopman.polyval``). ``WilsonParams``,
``wilson_lambdas``, ``wilson_gex`` and ``wilson_gex_from_lambdas`` are the
scalar Wilson model, one parameter pair at one point, and ``cstr_f0_member``
the CSTR drift family at one parameter pair: the per-sample paths that the
array families ``thermo_vle.wilson_gex`` and ``koopman.cstr_f0_family``
replaced. ``peak_traced_bytes`` is the memory check of the in-place SPD solves:
numpy reports its buffers to ``tracemalloc``.
"""

import csv
import math
import tracemalloc
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.optimize import brentq
from scipy.spatial.distance import cdist, pdist

from hybridkernel import linalg, simplex_qp, thermo_vle
from hybridkernel.control import lin_sontag
from hybridkernel.errors import (DimensionMismatch, DomainError, NoBracket, NonFinite,
                                 NotPositiveDefinite, NotPsd, NotSymmetric)
from hybridkernel.hybrid_static import Design
from hybridkernel.kernels import KernelSpec, _as_points
from hybridkernel.koopman import (DriftSample, GeneratorDesign, MonomialBasis, _matvec,
                                  cstr_f0_true, cstr_f1, default_closure_grid)
from hybridkernel.linalg import _as_2d, _check_finite, solve_least_squares
from hybridkernel.thermo_vle import (ATM_MMHG, CELSIUS_TO_KELVIN, ETHANOL_ANTOINE,
                                     ETHANOL_MOLAR_VOLUME, ETHANOL_TOLUENE_UNIQUAC, R_CAL,
                                     T_WINDOW_C, TOLUENE_ANTOINE, TOLUENE_MOLAR_VOLUME,
                                     AntoineConstants, UniquacParams)


def kron(A, B) -> np.ndarray:
    """Kronecker product; block (i, j) is a_ij * B."""
    return np.kron(_as_2d(A), _as_2d(B))


def vec(A) -> np.ndarray:
    """Column-major vectorization (stack columns); unvec inverts it."""
    return _as_2d(A).flatten(order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """The rows x cols matrix whose column-major vectorization is v."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise DimensionMismatch(f"vector of length {v.size} cannot fill a {rows}x{cols} matrix")
    return v.reshape((rows, cols), order="F")


def kernel_eval(k: KernelSpec, a, b) -> float:
    """The Gaussian kernel at one pair of points."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise DimensionMismatch(f"point shapes differ: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.exp(-k.gamma * np.dot(d, d)))


def objective(design: Design, weights, coeffs, weight_penalty, lambda_r: float) -> float:
    """Direct evaluation of ||F w + G c - y||^2 + w'Pw + lambda_r c'G c, where
    the p x p weight penalty P is l_theta I (subspace) or 0 (mixture)."""
    w = np.asarray(weights, dtype=float).ravel()
    c = np.asarray(coeffs, dtype=float).ravel()
    resid = design.F @ w + design.K @ c - design.y
    return float(resid @ resid + w @ np.asarray(weight_penalty, dtype=float) @ w
                 + lambda_r * (c @ design.K @ c))


# ---- the generic simplex QP with a free block, reduced by a dense Schur step --

@dataclass(frozen=True)
class SimplexQpProblem:
    """min z'Qz + q_lin'z over z = [b; c], b on the simplex, c free."""

    Q: np.ndarray
    q_lin: np.ndarray
    m_simplex: int
    n_free: int

    def objective(self, b, c_free=None) -> float:
        z = np.concatenate([np.asarray(b, float).ravel(),
                            np.asarray(c_free, float).ravel() if self.n_free else np.empty(0)])
        return float(z @ self.Q @ z + self.q_lin @ z)


def eliminate_free_block(problem: SimplexQpProblem):
    """The reduced problem (S, s) and the map c*(b) = W b + c0, as (S, s, W, c0).

    One SPD solve X = Qcc^{-1} [Qbc' | qc/2] gives W = -X[:, :m] and
    c0 = -X[:, m]; then f(b, c*(b)) = b'Sb + s'b up to a constant, with
    S = Qbb + Qbc W (symmetrized) and s = qb + 2 Qbc c0. NotPsd if Qcc is
    not positive definite.
    """
    m, Q, q = problem.m_simplex, np.asarray(problem.Q, float), np.asarray(problem.q_lin, float)
    Qbc, Qcc = Q[:m, m:], Q[m:, m:]
    X = np.empty((0, m + 1))
    if problem.n_free:
        try:
            X = linalg.solve_spd(Qcc, np.column_stack([Qbc.T, 0.5 * q[m:]]))
        except (NotPositiveDefinite, NotSymmetric) as e:
            raise NotPsd(f"free block of Q is not positive semidefinite: {e}") from e
    W, c0 = -X[:, :m], -X[:, m]
    S = Q[:m, :m] + Qbc @ W
    return 0.5 * (S + S.T), q[:m] + 2.0 * (Qbc @ c0), W, c0


def solve_full(problem: SimplexQpProblem):
    """(b, c, objective) of the full problem: the free block eliminated by
    eliminate_free_block, b from simplex_qp.solve."""
    S, s, W, c0 = eliminate_free_block(problem)
    b = simplex_qp.solve(S, s).b
    c = W @ b + c0
    return b, c, problem.objective(b, c)


def mixture_problem(design: Design, lambda_r: float) -> SimplexQpProblem:
    """The mixture fit as one QP over [b; c]: D'D + blockdiag(0, lambda_r G)
    and -2 D'y with D = [F, G]; its objective is the primal one less ||y||^2."""
    D = np.hstack([design.F, design.K])
    Q = D.T @ D
    m = design.F.shape[1]
    Q[m:, m:] += lambda_r * design.K
    return SimplexQpProblem(Q=0.5 * (Q + Q.T), q_lin=-2.0 * (D.T @ design.y),
                            m_simplex=m, n_free=design.K.shape[1])


def stacked_generator_problem(design: GeneratorDesign, lambda_b: float,
                              lambda_R: float) -> SimplexQpProblem:
    """The hybrid generator fit as one QP over [b; vec R]: the stacked design C
    has row block i = [G[i]', psi_i' (x) I_N]; Q = C'C plus lambda_b and
    lambda_R on the diagonals of the b and R blocks, q_lin = -2 C' vec(psidot).
    Its objective is the primal one less ||psidot||^2."""
    n, m, N = design.G.shape
    C = np.empty((n * N, m + N * N))
    C[:, :m] = design.G.transpose(0, 2, 1).reshape(n * N, m)
    C[:, m:] = (design.Psi[:, None, :, None] * np.eye(N)[:, None, :]).reshape(n * N, N * N)
    Q = C.T @ C
    Q.flat[::m + N * N + 1] += np.repeat([lambda_b, lambda_R], [m, N * N])
    return SimplexQpProblem(Q=0.5 * (Q + Q.T), q_lin=-2.0 * (C.T @ design.psidot.ravel()),
                            m_simplex=m, n_free=N * N)


def solve_unconstrained(problem: SimplexQpProblem):
    """Minimizer with the simplex constraint dropped (full space).

    Returns (b, c_free, objective) from the stacked closed form
    z = -Q^{-1} q_lin / 2.
    """
    L, _ = linalg.cholesky_with_jitter(problem.Q)
    z = scipy.linalg.cho_solve((L, True), -0.5 * problem.q_lin)
    m = problem.m_simplex
    return z[:m], z[m:], problem.objective(z[:m], z[m:])


def fista_solve(S, s, tol: float = 1e-8, max_iter: int = 50_000) -> simplex_qp.QpSolution:
    """min b'Sb + s'b over the simplex by accelerated projected gradient
    (FISTA), restarting momentum when the objective rises.

    Stops at a KKT residual <= tol and returns the best iterate, with
    converged=False if max_iter was reached.
    """
    S, s = np.asarray(S, dtype=float), np.asarray(s, dtype=float)
    S = 0.5 * (S + S.T)
    m = s.size

    def red_obj(b):
        return float(b @ S @ b + s @ b)

    def red_grad(b):
        return 2.0 * (S @ b) + s

    step = 1.0 / max(2.0 * float(np.linalg.eigvalsh(S)[-1]), 1e-12)
    b = np.full(m, 1.0 / m)
    y = b.copy()
    t = 1.0
    f_prev = red_obj(b)
    best_b, best_kkt = b.copy(), np.inf
    it = 0
    for it in range(1, max_iter + 1):
        b_new = simplex_qp.project_simplex(y - step * red_grad(y))
        f_new = red_obj(b_new)
        if f_new > f_prev:  # restart momentum on non-monotonicity
            y = b.copy()
            t = 1.0
            b_new = simplex_qp.project_simplex(y - step * red_grad(y))
            f_new = red_obj(b_new)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = b_new + ((t - 1.0) / t_new) * (b_new - b)
        b, t, f_prev = b_new, t_new, f_new
        kkt = simplex_qp.kkt_residual(S, s, b)
        if kkt < best_kkt:
            best_kkt, best_b = kkt, b.copy()
        if kkt <= tol:
            break
    return simplex_qp.QpSolution(b=best_b, objective=red_obj(best_b), kkt_residual=best_kkt,
                                 iterations=it, converged=best_kkt <= tol)


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


def psi_at(basis: MonomialBasis, x) -> np.ndarray:
    """psi at one state given as (x1, x2) floats, bit for bit a row of eval:
    squares are x1 * x1 and higher powers np.power, as there."""
    x1, x2 = x
    powers = [x1, x1 * x1][:basis.q] + [np.power(x1, k) for k in range(3, basis.q + 1)]
    return np.array(powers + [x2] + [p * x2 for p in powers[:-1]])


def jacobian_at(basis: MonomialBasis, x) -> np.ndarray:
    """Dpsi at one state given as (x1, x2) floats, bit for bit a row of
    jacobian: Python's ``**`` on floats is libm's pow, as np.float_power is."""
    x1, x2 = x
    return np.array([d for i, j in basis.exponents
                     for d in (i * x1 ** (i - 1) * x2 ** j if i >= 1 else 0.0,
                               x1 ** i * j * x2 ** (j - 1) if j >= 1 else 0.0)]
                    ).reshape(basis.N, 2)


def clf_value(basis: MonomialBasis, x) -> float:
    z = psi(basis, np.asarray(x, dtype=float))
    return float(z @ z)


def clf_rates_fields(basis: MonomialBasis, f0, f1, x) -> tuple[float, float]:
    """a = 2 psi' Dpsi f0 and b = 2 psi' Dpsi f1 from the batched eval and
    jacobian at a (2,) state array."""
    x = np.asarray(x, dtype=float).ravel()
    z, J = basis.eval(x), basis.jacobian(x)
    return (2.0 * float(z @ (J @ np.asarray(f0(x), dtype=float))),
            2.0 * float(z @ (J @ np.asarray(f1(x), dtype=float))))


def clf_rates_model(model, x) -> tuple[float, float]:
    """a = 2 z' A z and b = 2 z'(beta + Gamma z) at z = psi(x), A the drift matrix."""
    z = model.basis.eval(np.asarray(x, dtype=float).ravel())
    return (2.0 * float(z @ (model.drift_matrix @ z)),
            2.0 * float(z @ (model.input_beta + model.input_gamma @ z)))


def lifted_rhs(model, z, u: float) -> np.ndarray:
    """The bilinear model's velocity zdot = A z + u (beta + Gamma z)."""
    return model.drift_matrix @ z + u * (model.input_beta + model.input_gamma @ z)


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


def hybrid_generator_objective_per_point(sample: DriftSample, family, theta_samples,
                                         basis: MonomialBasis, lambda_b: float,
                                         lambda_R: float, b, R) -> float:
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


def closure_residual_per_point(field, basis: MonomialBasis, beta, Gamma,
                               grid=None) -> float:
    if grid is None:
        grid = default_closure_grid()
    grid = np.asarray(grid, dtype=float)
    worst = 0.0
    for x in grid:
        truth = jacobian(basis, x) @ np.asarray(field(x), dtype=float).ravel()
        worst = max(worst, float(np.max(np.abs(beta + Gamma @ psi(basis, x) - truth))))
    return worst


def simulate(dynamics, controller, x0, dt: float, horizon: float):
    """RK4 with zero-order hold on numpy arrays, collecting (times, states,
    controls) in lists; a non-finite state raises NonFinite."""
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
        if not np.isfinite(x).all():
            raise NonFinite(f"state became non-finite at step {step}")
        controls.append(u)
        times.append((step + 1) * dt)
        states.append(x.copy())
    return np.array(times), np.stack(states), np.array(controls)


def plant(x, u) -> np.ndarray:
    """The CSTR plant on a (2,) state array, from the array fields."""
    return cstr_f0_true(x) + u * cstr_f1(x)


def truth_controller(basis: MonomialBasis):
    """The ground-truth CLF controller on a (2,) state array: psi and Dpsi
    from the batched eval and jacobian, the CSTR fields as arrays."""
    def controller(x):
        return lin_sontag(*clf_rates_fields(basis, cstr_f0_true, cstr_f1, x))
    return controller


def model_controller(model):
    """The hybrid-model CLF controller on a (2,) state array, psi from eval."""
    def controller(x):
        return lin_sontag(*clf_rates_model(model, x))
    return controller


# ---- moved from hybridkernel.koopman: only tests call them ------------------

def gedmd(sample: DriftSample, basis: MonomialBasis) -> np.ndarray:
    """Black-box generator estimate: min_A sum_i ||A psi(x_i) - psi-dot(x_i)||^2."""
    if sample.size < basis.N:
        raise DimensionMismatch(f"need at least N={basis.N} samples, got {sample.size}")
    Psi = basis.eval(sample.states)        # (n, N)
    Psidot = lifted_velocities(sample, basis)  # equals the batched path bit for bit
    return solve_least_squares(Psi, Psidot).T


def hybrid_generator_objective(design: GeneratorDesign, lambda_b: float, lambda_R: float,
                               b, R) -> float:
    """Direct evaluation of the hybrid-generator objective at a given (b, R)."""
    b = np.asarray(b, dtype=float).ravel()
    R = np.asarray(R, dtype=float)
    resid = design.residuals(b, R)
    return (float(np.sum(resid * resid)) + lambda_b * float(b @ b)
            + lambda_R * float(np.sum(R * R)))


def closure_residual(field, basis: MonomialBasis, beta, Gamma, grid=None) -> float:
    """Max abs deviation of the closure on the grid (the default lattice if None)."""
    grid = default_closure_grid() if grid is None else np.asarray(grid, dtype=float)
    truth = _matvec(basis.jacobian(grid),
                    np.broadcast_to(np.asarray(field(grid), dtype=float), grid.shape))
    fit = (np.asarray(beta, dtype=float)
           + _matvec(np.asarray(Gamma, dtype=float), basis.eval(grid)))
    return float(np.max(np.abs(fit - truth)))


# ---- the full-matrix SPD path, per-step UNIQUAC, symmetrized Gram, csv rows --

def fit_reference_krr(design: Design, lam: float):
    """c = (G + lam I)^-1 (y - F 1) from a dense jittered Cholesky of G + lam I."""
    w = np.ones(design.F.shape[1])
    M = design.K.copy()
    M.flat[::M.shape[0] + 1] += lam
    return design.model(w, linalg.solve_spd(M, design.y - design.F @ w))


def solve_shifted(G, factor: linalg.LowRankFactor, lam: float, rhs) -> np.ndarray:
    """(G + lam I)^-1 rhs for one shift lam; rhs is (n,) or (n, k), and the
    solution has its shape: refined per column from the factor, or from a
    dense factorization of G + lam I where the factor's tail and rounding
    reach lam/10."""
    G, b = np.asarray(G, dtype=float), np.asarray(rhs, dtype=float)
    if factor.tail + b.shape[0] * np.finfo(float).eps * factor.mu.max(initial=0.0) >= lam / 10:
        M = G.copy()
        M.flat[::M.shape[0] + 1] += lam
        L, jitter = linalg.cholesky_with_jitter(M, overwrite=True)
        if jitter:
            raise NotPositiveDefinite(f"G + lambda I needs Cholesky jitter at lambda={lam}")
        x = linalg._solve_factored(L, _as_2d(b))
        return x[:, 0] if b.ndim == 1 else x
    W = factor.W
    shrink = (factor.mu / (lam * (factor.mu + lam)) if lam < 1e150
              else factor.mu / lam / (factor.mu + lam))
    if b.ndim == 2:
        shrink = shrink[:, None]

    def apply_p(v):
        return v / lam - W @ (shrink * (W.T @ v))

    x = apply_p(b)
    size = np.full(b.shape[1:], np.inf)
    for _ in range(linalg.MAX_REFINEMENT_STEPS):
        dx = apply_p(b - G @ x - lam * x)
        new = np.linalg.norm(dx, axis=0) if b.ndim == 2 else np.linalg.norm(dx)
        halves = new < size / 2
        if not halves.any():
            break
        x += np.where(halves, dx, 0.0)
        size = np.where(halves, new, 0.0)
    return x


def rmse(model, design: Design) -> float:
    """RMS error of one model on the design's dataset, from F w + K c."""
    pred = design.F @ model.weights + design.K @ model.coeffs
    return float(np.sqrt(np.mean((pred - design.y) ** 2)))


def joint_matrix(design: Design, lambda_theta: float, lambda_r: float) -> np.ndarray:
    """D'D + blockdiag(lambda_theta I, lambda_r G) as a full matrix, from
    numpy's D.T @ D of D = [F, G]."""
    p = design.F.shape[1]
    D = np.hstack([design.F, design.K])
    M = D.T @ D
    M[np.arange(p), np.arange(p)] += lambda_theta
    M[p:, p:] += lambda_r * design.K
    return M


def fit_subspace(design: Design, lambda_theta: float, lambda_r: float) -> np.ndarray:
    """[theta; c] of the joint fit from the full joint matrix: factored by
    linalg.cholesky_with_jitter in its own memory, then solved by dpotrs."""
    D = np.hstack([design.F, design.K])
    L, _ = linalg.cholesky_with_jitter(joint_matrix(design, lambda_theta, lambda_r),
                                       overwrite=True)
    return linalg._solve_factored(L, (D.T @ design.y)[:, None])[:, 0]


def cholesky_with_jitter(M) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of M with full-matrix checks and numpy's own copy."""
    M = _as_2d(M)
    _check_finite(M, "matrix")
    dim = M.shape[0]
    if M.shape[1] != dim:
        raise DimensionMismatch(f"matrix is {M.shape}, not square")
    scale = max(abs(M).max(), 1.0)
    if abs(M - M.T).max() > linalg.SYMMETRY_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric to tolerance")
    base = linalg.JITTER_INIT * max(np.trace(M) / dim, np.finfo(float).tiny)
    jitter = 0.0
    for attempt in range(linalg.MAX_JITTER_RETRIES + 1):
        try:
            L = np.linalg.cholesky(M + jitter * np.eye(dim) if jitter else M)
            return L, jitter
        except np.linalg.LinAlgError:
            jitter = base * 10.0**attempt
    raise NotPositiveDefinite("Cholesky failed after jitter escalation")


def _cho_solve_spd(cholesky, M, rhs) -> np.ndarray:
    """solve_spd from the factor cholesky(M) and scipy's cho_solve (scipy's
    own dpotrs, in scipy's copy of OpenBLAS)."""
    M = _as_2d(M)
    rhs_arr = np.asarray(rhs, dtype=float)
    was_1d = rhs_arr.ndim == 1
    B = _as_2d(rhs_arr)
    _check_finite(B, "rhs")
    if B.shape[0] != M.shape[0]:
        raise DimensionMismatch(f"rhs has {B.shape[0]} rows, matrix has dimension {M.shape[0]}")
    L, _ = cholesky(M)
    X = scipy.linalg.cho_solve((L, True), B)
    return X[:, 0] if was_1d else X


def solve_spd(M, rhs) -> np.ndarray:
    return _cho_solve_spd(cholesky_with_jitter, M, rhs)


def copy_cholesky_with_jitter(M) -> tuple[np.ndarray, float]:
    """The Fortran-ordered copy of M that linalg.cholesky_with_jitter refilled
    on each attempt before it factored one buffer in place (M' when M is
    exactly symmetric, jitter added on the diagonal only), factored by
    np.linalg.cholesky."""
    M, asymmetry = linalg._symmetric(M)
    dim = M.shape[0]
    base = linalg.JITTER_INIT * max(np.trace(M) / dim, np.finfo(float).tiny)
    jitter = 0.0
    A = np.empty(M.shape, order="F")
    for attempt in range(linalg.MAX_JITTER_RETRIES + 1):
        np.copyto(A, M if asymmetry else M.T)
        if jitter:
            A.flat[::dim + 1] += jitter
        try:
            return np.linalg.cholesky(A), jitter
        except np.linalg.LinAlgError:
            jitter = base * 10.0**attempt
    raise NotPositiveDefinite("Cholesky failed after jitter escalation")


def copy_solve_spd(M, rhs) -> np.ndarray:
    """linalg.solve_spd through copy_cholesky_with_jitter and scipy's cho_solve."""
    return _cho_solve_spd(copy_cholesky_with_jitter, M, rhs)


def low_rank_psd_factor(G) -> linalg.LowRankFactor:
    """linalg.low_rank_psd_factor through scipy's f2py dpstrf and svd (scipy's
    own copy of OpenBLAS)."""
    G, _ = linalg._symmetric(G)
    n = G.shape[0]
    diag = G.diagonal()
    tol = n * np.finfo(float).eps * max(diag.max(), 0.0)
    C, piv, rank, _ = scipy.linalg.lapack.dpstrf(G.T, tol=tol, lower=1)
    L = np.zeros((n, rank))
    L[piv - 1] = np.tril(C[:, :rank])
    W, s, _ = scipy.linalg.svd(L, full_matrices=False)
    return linalg.LowRankFactor(W=W, mu=s * s,
                                tail=float((diag - np.einsum("ij,ij->i", L, L)).sum()))


def uniquac_gamma(p: UniquacParams, x1: float, T: float) -> tuple[float, float]:
    """Activity coefficients, every term evaluated at each call."""
    if not (0.0 <= x1 <= 1.0):
        raise DomainError(f"x1 = {x1} outside [0, 1]")
    if T <= 0:
        raise DomainError("temperature must be positive (Kelvin)")
    x2 = 1.0 - x1
    sr = x1 * p.r1 + x2 * p.r2
    sq = x1 * p.q1 + x2 * p.q2
    phi1_x = p.r1 / sr
    phi2_x = p.r2 / sr
    th1 = x1 * p.q1 / sq
    th2 = x2 * p.q2 / sq
    phi1_th = (p.r1 * sq) / (p.q1 * sr)
    phi2_th = (p.r2 * sq) / (p.q2 * sr)
    tau12 = np.exp(-p.a12 / T)
    tau21 = np.exp(-p.a21 / T)

    d1 = th1 + th2 * tau21
    d2 = th1 * tau12 + th2
    ln_g1 = (
        np.log(phi1_x) + 1.0 - phi1_x
        - 5.0 * p.q1 * (np.log(phi1_th) + 1.0 - phi1_th)
        + p.q1 * (1.0 - np.log(d1) - th1 / d1 - th2 * tau12 / d2)
    )
    ln_g2 = (
        np.log(phi2_x) + 1.0 - phi2_x
        - 5.0 * p.q2 * (np.log(phi2_th) + 1.0 - phi2_th)
        + p.q2 * (1.0 - np.log(d2) - th1 * tau21 / d1 - th2 / d2)
    )
    return float(np.exp(ln_g1)), float(np.exp(ln_g2))


def bubble_point(x1: float, P: float = ATM_MMHG,
                 params: UniquacParams = ETHANOL_TOLUENE_UNIQUAC,
                 antoine1: AntoineConstants = ETHANOL_ANTOINE,
                 antoine2: AntoineConstants = TOLUENE_ANTOINE) -> tuple[float, float]:
    """Bubble point by bisection, with the full uniquac_gamma at every step."""
    if not (0.0 <= x1 <= 1.0):
        raise DomainError(f"x1 = {x1} outside [0, 1]")
    if P <= 0:
        raise DomainError("pressure must be positive")
    T_c = bisect_window(lambda T: pressure_excess(x1, T, P, params, antoine1, antoine2))
    g1, _ = uniquac_gamma(params, x1, T_c + CELSIUS_TO_KELVIN)
    y1 = x1 * g1 * antoine_psat(antoine1, T_c) / P
    return T_c, float(np.clip(y1, 0.0, 1.0))


def antoine_psat(c: AntoineConstants, T: float) -> float:
    """Saturated vapor pressure in mmHg at T degC, by Python's ``**``."""
    denom = T + c.C
    if denom <= 0:
        raise DomainError(f"Antoine denominator T + C = {denom} <= 0")
    return 10.0 ** (c.A - c.B / denom)


def pressure_excess(x1: float, T_c: float, P: float = ATM_MMHG,
                    params: UniquacParams = ETHANOL_TOLUENE_UNIQUAC,
                    antoine1: AntoineConstants = ETHANOL_ANTOINE,
                    antoine2: AntoineConstants = TOLUENE_ANTOINE) -> float:
    """Bubble pressure minus P at x1 and T_c degC, from the full uniquac_gamma
    and Python's ``**`` in antoine_psat."""
    g1, g2 = uniquac_gamma(params, x1, T_c + CELSIUS_TO_KELVIN)
    return (x1 * g1 * antoine_psat(antoine1, T_c)
            + (1.0 - x1) * g2 * antoine_psat(antoine2, T_c) - P)


def bisect_window(pressure_excess) -> float:
    """Plain bisection of T_WINDOW_C to |dT| < 1e-8, evaluating every midpoint."""
    lo, hi = T_WINDOW_C
    f_lo, f_hi = pressure_excess(lo), pressure_excess(hi)
    if f_lo * f_hi > 0:
        raise NoBracket(f"pressure equation does not change sign on {T_WINDOW_C}")
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        f_mid = pressure_excess(mid)
        if f_mid * f_lo <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def illinois_root(f, a: float, fa: float, b: float, fb: float) -> float:
    """Root of f in [a, b], given f(a) < 0 <= f(b), by Illinois regula falsi
    (Dowell & Jarratt 1971): the midpoint of a computed-sign bracket narrower
    than 1e-11 or a point where f is 0; NaN if 100 steps do not get there or
    a value of f is not finite."""
    side = 0
    for _ in range(100):
        if b - a < 1e-11:
            return 0.5 * (a + b)
        c = min(max(b - fb * (b - a) / (fb - fa), a + 5e-12), b - 5e-12)
        fc = f(c)
        if not math.isfinite(fc):
            return math.nan
        if fc == 0:
            return c
        if fc < 0:
            a, fa = c, fc
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side > 0:
                fa *= 0.5
            side = 1
    return math.nan


@dataclass(frozen=True)
class VlePoint:
    x: float  # liquid ethanol mole fraction
    y: float  # vapor ethanol mole fraction
    T: float  # degrees Celsius


def excess_gibbs_from_txy(pt: VlePoint, P: float = ATM_MMHG,
                          antoine1: AntoineConstants = ETHANOL_ANTOINE,
                          antoine2: AntoineConstants = TOLUENE_ANTOINE) -> float:
    """The Gibbs-energy target x ln(Py/Psat1) + (1-x) ln(P(1-y)/Psat2) at one point."""
    if not (0.0 < pt.x < 1.0) or not (0.0 < pt.y < 1.0):
        raise DomainError("x and y must lie strictly inside (0, 1)")
    p1 = antoine_psat(antoine1, pt.T)
    p2 = antoine_psat(antoine2, pt.T)
    return float(pt.x * np.log(P * pt.y / p1) + (1.0 - pt.x) * np.log(P * (1.0 - pt.y) / p2))


@dataclass(frozen=True)
class WilsonParams:
    """Wilson model with parameters encoded on [0, 1]^2 via A = 10^(4 theta - 2)."""

    theta: tuple

    @property
    def A12(self) -> float:
        return 10.0 ** (4.0 * self.theta[0] - 2.0)

    @property
    def A21(self) -> float:
        return 10.0 ** (4.0 * self.theta[1] - 2.0)


def wilson_lambdas(w: WilsonParams, T: float) -> tuple[float, float]:
    """Wilson Lambda coefficients (Lambda12, Lambda21) at T in Kelvin."""
    if T <= 0:
        raise DomainError("temperature must be positive (Kelvin)")
    lam12 = (TOLUENE_MOLAR_VOLUME / ETHANOL_MOLAR_VOLUME) * np.exp(-w.A12 / (R_CAL * T))
    lam21 = (ETHANOL_MOLAR_VOLUME / TOLUENE_MOLAR_VOLUME) * np.exp(-w.A21 / (R_CAL * T))
    return float(lam12), float(lam21)


def wilson_gex(w: WilsonParams, x1: float, T: float) -> float:
    """Wilson excess Gibbs energy / RT at liquid fraction x1, T in Kelvin."""
    return wilson_gex_from_lambdas(*wilson_lambdas(w, T), x1)


def wilson_gex_from_lambdas(lam12: float, lam21: float, x1: float) -> float:
    """Wilson excess Gibbs energy / RT with the Lambda coefficients supplied
    directly; 0 at the pure components x1 = 0 and x1 = 1."""
    if not (0.0 <= x1 <= 1.0):
        raise DomainError(f"x1 = {x1} outside [0, 1]")
    if x1 == 0.0 or x1 == 1.0:
        return 0.0
    x2 = 1.0 - x1
    return float(-x1 * np.log(x1 + x2 * lam12) - x2 * np.log(x2 + x1 * lam21))


def cstr_f0_member(x, theta) -> np.ndarray:
    """The CSTR drift family member f0(x|theta) of one theta at (..., 2) states."""
    x = np.asarray(x, dtype=float)
    t1, t2 = float(theta[0]), float(theta[1])
    x1, x2 = x[..., 0], x[..., 1]
    kin = t1 * x1 + t2 * x1 * x1
    return np.stack([-x1 / 4.0 - kin, -3.0 * x2 / 4.0 + kin], axis=-1)


def gram(k: KernelSpec, points) -> np.ndarray:
    """Gram matrix from all n^2 distances, symmetrized."""
    X = _as_points(points)
    G = np.exp(-k.gamma * cdist(X, X, metric="sqeuclidean"))
    return 0.5 * (G + G.T)


def cross_gram(k: KernelSpec, a_points, b_points) -> np.ndarray:
    """Rectangular kernel matrix from scipy's cdist distances."""
    return np.exp(-k.gamma * cdist(_as_points(a_points), _as_points(b_points),
                                   metric="sqeuclidean"))


def nearest_distance(X) -> float:
    """Least Euclidean distance between two rows of X, from scipy's pdist."""
    return float(pdist(np.asarray(X, dtype=float)).min())


def find_azeotrope() -> VlePoint:
    """Interior composition where y(x) = x at 1 atm, with its boiling temperature."""

    def gap(x: float) -> float:
        return thermo_vle.bubble_point(x)[1] - x

    lo, hi = 0.01, 0.99
    if gap(lo) * gap(hi) > 0:
        raise NoBracket("y(x) - x does not change sign on (0.01, 0.99)")
    x_az = brentq(gap, lo, hi, xtol=1e-10)
    T_az, y_az = thermo_vle.bubble_point(x_az)
    return VlePoint(x=float(x_az), y=float(y_az), T=float(T_az))


def load_vle_csv(path) -> list:
    """The VLE points of a CSV the CLI wrote (columns x, y, T)."""
    with Path(path).open(newline="") as fh:
        return [VlePoint(x=float(row["x"]), y=float(row["y"]), T=float(row["T"]))
                for row in csv.DictReader(fh)]


def save_csv(traj, path) -> None:
    """A trajectory's CSV file, written row by row by csv.writer."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x1", "x2", "u"])
        for i, t in enumerate(traj.times):
            u = traj.controls[i] if i < traj.controls.size else ""
            writer.writerow([repr(float(t)), repr(float(traj.states[i, 0])),
                             repr(float(traj.states[i, 1])), repr(float(u)) if u != "" else ""])


def trajectory_csv(traj) -> str:
    """A trajectory's CSV text with every column, its time column included,
    repr'd for this one file."""
    columns = [traj.times.tolist(), *traj.states[:, :2].T.tolist(), traj.controls.tolist()]
    rows = zip_longest(*(map(repr, c) for c in columns), fillvalue="")
    return "\r\n".join(["t,x1,x2,u", *map(",".join, rows), ""])


def peak_traced_bytes(fn, *args) -> int:
    """The most memory that fn(*args) held at once, as tracemalloc saw it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

"""Reference implementations that only tests use.

The per-point Koopman functions are the scalar paths that the batched code
in ``hybridkernel.koopman`` and ``hybridkernel.control`` replaced; the
property tests check the batched results against them bit for bit. The
closed loop on numpy arrays (``simulate``, ``plant`` and the two controllers)
is the path that ``control.simulate`` on Python floats replaced. Likewise
the full-matrix SPD solve, the bubble point that re-evaluates every UNIQUAC
term at each bisection step, the symmetrized Gram matrix and the csv.writer
trajectory file are the paths ``linalg``, ``thermo_vle``, ``kernels`` and
the CLI's output layer replaced. ``load_vle_csv`` reads a CSV the CLI wrote;
only tests read one back. ``gedmd``, ``hybrid_generator_objective`` and
``closure_residual`` moved here from ``hybridkernel.koopman``, and
``kernel_eval``, ``vec`` and ``objective`` from ``kernels``, ``linalg`` and
``hybrid_static``: the package has no caller for them.
"""

import csv
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

from hybridkernel import linalg, simplex_qp
from hybridkernel.control import lin_sontag
from hybridkernel.errors import (DimensionMismatch, DomainError, NoBracket, NonFinite,
                                 NotPositiveDefinite, NotSymmetric)
from hybridkernel.hybrid_static import Design
from hybridkernel.kernels import KernelSpec, _as_points
from hybridkernel.koopman import (DriftSample, GeneratorDesign, MonomialBasis,
                                  _closure_targets, _matvec, cstr_f0_true, cstr_f1,
                                  default_closure_grid)
from hybridkernel.linalg import _as_2d, _check_finite, solve_least_squares
from hybridkernel.thermo_vle import (ATM_MMHG, CELSIUS_TO_KELVIN, ETHANOL_ANTOINE,
                                     ETHANOL_TOLUENE_UNIQUAC, T_WINDOW_C, TOLUENE_ANTOINE,
                                     AntoineConstants, UniquacParams, VlePoint,
                                     antoine_psat)


def kron(A, B) -> np.ndarray:
    """Kronecker product; block (i, j) is a_ij * B."""
    return np.kron(_as_2d(A), _as_2d(B))


def vec(A) -> np.ndarray:
    """Column-major vectorization (stack columns); linalg.unvec inverts it."""
    return _as_2d(A).flatten(order="F")


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
    the p x p weight penalty P is l_theta I (subspace) or l_omega G_theta
    (mixture)."""
    w = np.asarray(weights, dtype=float).ravel()
    c = np.asarray(coeffs, dtype=float).ravel()
    resid = design.F @ w + design.K @ c - design.y
    return float(resid @ resid + w @ np.asarray(weight_penalty, dtype=float) @ w
                 + lambda_r * (c @ design.K @ c))


def solve_unconstrained(problem: simplex_qp.SimplexQpProblem):
    """Minimizer with the simplex constraint dropped (full space).

    Returns (b, c_free, objective) from the stacked closed form
    z = -Q^{-1} q_lin / 2.
    """
    L, _ = linalg.cholesky_with_jitter(problem.Q)
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
        x = np.asarray(x, dtype=float).ravel()
        psi, J = basis.eval(x), basis.jacobian(x)
        a = 2.0 * float(psi @ (J @ cstr_f0_true(x)))
        b = 2.0 * float(psi @ (J @ cstr_f1(x)))
        return lin_sontag(a, b)
    return controller


def model_controller(model):
    """The hybrid-model CLF controller on a (2,) state array, psi from eval."""
    def controller(x):
        z = model.basis.eval(np.asarray(x, dtype=float).ravel())
        a = 2.0 * float(z @ (model.drift_matrix @ z))
        b = 2.0 * float(z @ (model.input_beta + model.input_gamma @ z))
        return lin_sontag(a, b)
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
    """Max abs deviation of the closure on the grid."""
    grid, truth = _closure_targets(field, basis, grid)
    fit = np.asarray(beta, dtype=float) + _matvec(np.asarray(Gamma, dtype=float),
                                                  basis.eval(grid))
    return float(np.max(np.abs(fit - truth)))


# ---- the full-matrix SPD path, per-step UNIQUAC, symmetrized Gram, csv rows --

def cholesky_with_jitter(M) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of M with full-matrix checks and scipy's own copy."""
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
            L = scipy.linalg.cholesky(M + jitter * np.eye(dim) if jitter else M, lower=True)
            return L, jitter
        except scipy.linalg.LinAlgError:
            jitter = base * 10.0**attempt
    raise NotPositiveDefinite("Cholesky failed after jitter escalation")


def solve_spd(M, rhs) -> np.ndarray:
    M = _as_2d(M)
    rhs_arr = np.asarray(rhs, dtype=float)
    was_1d = rhs_arr.ndim == 1
    B = _as_2d(rhs_arr)
    _check_finite(B, "rhs")
    if B.shape[0] != M.shape[0]:
        raise DimensionMismatch(f"rhs has {B.shape[0]} rows, matrix has dimension {M.shape[0]}")
    L, _ = cholesky_with_jitter(M)
    X = scipy.linalg.cho_solve((L, True), B)
    return X[:, 0] if was_1d else X


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
    x2 = 1.0 - x1

    def pressure_excess(T_c: float) -> float:
        g1, g2 = uniquac_gamma(params, x1, T_c + CELSIUS_TO_KELVIN)
        return (x1 * g1 * antoine_psat(antoine1, T_c)
                + x2 * g2 * antoine_psat(antoine2, T_c) - P)

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
    T_c = 0.5 * (lo + hi)
    g1, _ = uniquac_gamma(params, x1, T_c + CELSIUS_TO_KELVIN)
    y1 = x1 * g1 * antoine_psat(antoine1, T_c) / P
    return T_c, float(np.clip(y1, 0.0, 1.0))


def gram(k: KernelSpec, points) -> np.ndarray:
    """Gram matrix from all n^2 distances, symmetrized."""
    X = _as_points(points)
    G = np.exp(-k.gamma * cdist(X, X, metric="sqeuclidean"))
    return 0.5 * (G + G.T)


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

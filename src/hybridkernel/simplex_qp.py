"""Quadratic programs with a probability-simplex block and an unconstrained block.

Objective convention: f(b, c) = z^T Q z + q_lin^T z with z = [b; c] (no 1/2
factor, constant terms dropped). The free block c is eliminated analytically
through a Schur complement; the reduced problem in b is solved by accelerated
projected gradient with adaptive restart.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPsd, NotPositiveDefinite, NotSymmetric
from .linalg import SYMMETRY_RTOL, _check_finite, _max_asymmetry, cholesky_with_jitter

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50_000


@dataclass(frozen=True)
class SimplexQpProblem:
    """min z'Qz + q_lin'z over z = [b; c], b on the simplex, c free."""

    Q: np.ndarray
    q_lin: np.ndarray
    m_simplex: int
    n_free: int

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        q = np.asarray(self.q_lin, dtype=float).ravel()
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "q_lin", q)
        dim = self.m_simplex + self.n_free
        if self.m_simplex < 1 or self.n_free < 0:
            raise DimensionMismatch("need m_simplex >= 1 and n_free >= 0")
        if Q.shape != (dim, dim):
            raise DimensionMismatch(f"Q is {Q.shape}, expected {(dim, dim)}")
        if q.size != dim:
            raise DimensionMismatch(f"q_lin has length {q.size}, expected {dim}")
        _check_finite(Q, "Q")
        _check_finite(q, "q_lin")
        if _max_asymmetry(Q) > SYMMETRY_RTOL * max(Q.max(), -Q.min(), 1.0):
            raise NotSymmetric("Q must be symmetric")

    def objective(self, b, c_free=None) -> float:
        z = np.concatenate([np.asarray(b, float).ravel(),
                            np.asarray(c_free, float).ravel() if self.n_free else np.empty(0)])
        return float(z @ self.Q @ z + self.q_lin @ z)


@dataclass
class QpSolution:
    b: np.ndarray
    c_free: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool = True
    kkt_history: list = field(default_factory=list, repr=False)
    objective_history: list = field(default_factory=list, repr=False)


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto {b >= 0, sum b = 1} by sort-and-threshold."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size == 0:
        raise DimensionMismatch("cannot project an empty vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    cond = u - css / ks > 0
    k = ks[cond][-1]
    tau = css[k - 1] / k
    return np.maximum(v - tau, 0.0)


def _split(problem: SimplexQpProblem):
    m = problem.m_simplex
    Qbb = problem.Q[:m, :m]
    Qbc = problem.Q[:m, m:]
    Qcc = problem.Q[m:, m:]
    qb = problem.q_lin[:m]
    qc = problem.q_lin[m:]
    return Qbb, Qbc, Qcc, qb, qc


def _free_solver(problem: SimplexQpProblem):
    """Return a map b -> argmin_c f(b, c), backed by one Cholesky of Qcc."""
    Qbb, Qbc, Qcc, qb, qc = _split(problem)
    if problem.n_free == 0:
        return lambda b: np.empty(0)
    try:
        L, _ = cholesky_with_jitter(Qcc)
    except (NotPositiveDefinite, NotSymmetric) as e:
        raise NotPsd(f"free block of Q is not positive semidefinite: {e}") from e

    def solve_c(b):
        rhs = -(Qbc.T @ b + 0.5 * qc)
        return scipy.linalg.cho_solve((L, True), rhs)

    return solve_c


def kkt_residual(problem: SimplexQpProblem, b, c_free) -> float:
    """max of free-block gradient norm and simplex stationarity violation."""
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c_free, dtype=float).ravel()
    Qbb, Qbc, Qcc, qb, qc = _split(problem)
    g_b = 2.0 * (Qbb @ b) + qb
    if problem.n_free:
        g_b = g_b + 2.0 * (Qbc @ c)
        g_c = 2.0 * (Qbc.T @ b + Qcc @ c) + qc
        free_norm = float(np.linalg.norm(g_c))
    else:
        free_norm = 0.0
    simplex_viol = float(np.linalg.norm(b - project_simplex(b - g_b)))
    return max(free_norm, simplex_viol)


def _reduced_problem(problem: SimplexQpProblem, solve_c):
    """Schur complement after eliminating the free block: min b'Sb + s'b.

    With c*(b) = W b + c0 (W = -Qcc^{-1}Qbc', c0 = -Qcc^{-1}qc/2), the
    cross terms cancel and f(b, c*(b)) = b'(Qbb + Qbc W)b + (qb + 2 Qbc c0)'b
    up to a constant.
    """
    Qbb, Qbc, Qcc, qb, qc = _split(problem)
    if problem.n_free == 0:
        return Qbb, qb
    c0 = solve_c(np.zeros(problem.m_simplex))
    W = np.column_stack([solve_c(e) for e in np.eye(problem.m_simplex)]) - c0[:, None]
    S = Qbb + Qbc @ W
    S = 0.5 * (S + S.T)
    s = qb + 2.0 * (Qbc @ c0)
    return S, s


def solve(problem: SimplexQpProblem, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> QpSolution:
    """Solve the simplex-constrained QP.

    Free block is eliminated exactly; b is found by FISTA with restart on
    non-monotone objective, stopping when the KKT residual drops below tol.
    If max_iter is hit, the best iterate is returned with converged=False
    and a warning is emitted.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    m = problem.m_simplex
    solve_c = _free_solver(problem)

    if m == 1:
        b = np.ones(1)
        c = solve_c(b)
        return QpSolution(b=b, c_free=c, objective=problem.objective(b, c),
                          kkt_residual=kkt_residual(problem, b, c), iterations=0)

    S, s = _reduced_problem(problem, solve_c)

    def red_obj(b):
        return float(b @ S @ b + s @ b)

    def red_grad(b):
        return 2.0 * (S @ b) + s

    eigmax = float(np.linalg.eigvalsh(S)[-1])
    if eigmax < -1e-8 * max(abs(S).max(), 1.0):
        raise NotPsd("reduced Hessian has a significantly negative eigenvalue")
    L = max(2.0 * eigmax, 1e-12)
    step = 1.0 / L

    b = np.full(m, 1.0 / m)
    y = b.copy()
    t = 1.0
    f_prev = red_obj(b)
    best_b, best_kkt = b.copy(), np.inf
    history = []
    obj_history = [f_prev]
    it = 0
    for it in range(1, max_iter + 1):
        b_new = project_simplex(y - step * red_grad(y))
        f_new = red_obj(b_new)
        if f_new > f_prev:  # restart momentum on non-monotonicity
            y = b.copy()
            t = 1.0
            b_new = project_simplex(y - step * red_grad(y))
            f_new = red_obj(b_new)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = b_new + ((t - 1.0) / t_new) * (b_new - b)
        b, t, f_prev = b_new, t_new, f_new
        kkt = float(np.linalg.norm(b - project_simplex(b - red_grad(b))))
        history.append(kkt)
        obj_history.append(f_new)
        if kkt < best_kkt:
            best_kkt, best_b = kkt, b.copy()
        if kkt <= tol:
            break

    converged = best_kkt <= tol
    if not converged:
        warnings.warn(f"simplex QP hit max_iter={max_iter} with KKT residual {best_kkt:.3e}",
                      RuntimeWarning)
    b = best_b
    c = solve_c(b)
    return QpSolution(b=b, c_free=c, objective=problem.objective(b, c),
                      kkt_residual=kkt_residual(problem, b, c), iterations=it,
                      converged=converged, kkt_history=history,
                      objective_history=obj_history)

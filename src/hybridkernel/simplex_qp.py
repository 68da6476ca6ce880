"""Quadratic programs with a probability-simplex block and an unconstrained block.

Objective convention: f(b, c) = z^T Q z + q_lin^T z with z = [b; c] (no 1/2
factor, constant terms dropped). The free block c is eliminated analytically
through a Schur complement; the reduced problem in b is solved exactly by a
primal active-set method, which ends after finitely many steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NotConverged, NotPositiveDefinite, NotPsd,
                     NotSymmetric)
from .linalg import SYMMETRY_RTOL, _check_finite, _max_asymmetry, solve_spd

# The active-set method takes at most this many steps per simplex weight
# before it raises NotConverged. The paper's QPs take at most 1 step in all,
# random ones (m <= 40, singular S included) at most 1.2 per weight.
MAX_STEPS_PER_WEIGHT = 10
# Gradient gaps and curvatures below this fraction of max(|S|, |s|) count as 0.
GAP_RTOL = 1e-13


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


def _active_set(S, s) -> tuple[np.ndarray, int]:
    """Minimize f(b) = b'Sb + s'b (S PSD) over the simplex; returns (b, steps).

    Lawson & Hanson's NNLS scheme (1974, "Solving Least Squares Problems",
    ch. 23) with the simplex equality, as in Nocedal & Wright (2006,
    "Numerical Optimization", sec. 16.5). b starts at the best vertex. Once the
    gradient g is constant on the support P, the weight with the most negative
    gap g_i - g_P (the smallest index on ties) joins P; b is optimal when no
    gap is negative. Each step is the Newton step on the face of P, from the
    eigendecomposition of S centred on the face with its eigenvalues raised to
    at least the tolerance (S is singular in setting3, and f may be linear
    along its null space); the raised step still lowers f. b steps to the
    face's minimizer, or back to the face's boundary, where a weight that
    reaches 0 leaves P.
    """
    m = s.size
    tol = GAP_RTOL * max(abs(S).max(), abs(s).max())
    b = np.zeros(m)
    b[np.argmin(S.diagonal() + s)] = 1.0
    for step in range(MAX_STEPS_PER_WEIGHT * m):
        support = b > 0
        g = 2.0 * (S @ b) + s
        gap = g - g[support].mean()
        if np.abs(gap[support]).max() <= tol:
            j = np.argmin(np.where(support, np.inf, gap))
            if gap[j] >= -tol:
                return b, step
            support[j] = True
        P = np.flatnonzero(support)
        H = S[np.ix_(P, P)]
        w, V = np.linalg.eigh(H - H.mean(axis=0) - H.mean(axis=1)[:, None] + H.mean())
        d = -V @ ((V.T @ (g[P] - g[P].mean())) / np.maximum(2.0 * w, tol))
        d -= d.mean()  # the ones vector is the centred matrix's null space: sum b stays 1
        shrinking = d < 0
        ratios = b[P][shrinking] / -d[shrinking]
        t = min(1.0, ratios.min(initial=np.inf))
        bP = b[P] + t * d
        if t < 1.0:
            bP[np.flatnonzero(shrinking)[np.argmin(ratios)]] = 0.0
        b[P] = np.maximum(bP, 0.0)
    raise NotConverged(f"simplex QP did not converge in {MAX_STEPS_PER_WEIGHT * m} steps")


def solve(problem: SimplexQpProblem) -> QpSolution:
    """Solve the simplex-constrained QP exactly.

    The free block is eliminated through its Schur complement: one SPD solve
    X = Qcc^{-1} [Qbc' | qc/2] gives c*(b) = W b + c0 with W = -X[:, :m] and
    c0 = -X[:, m], and f(b, c*(b)) = b'Sb + s'b up to a constant, with
    S = Qbb + Qbc W and s = qb + 2 Qbc c0. NotPsd if Qcc is not positive
    definite or S has an eigenvalue below -1e-8 max(|S|, 1); NotConverged if
    the active-set method takes more than MAX_STEPS_PER_WEIGHT steps per weight.
    """
    Qbb, Qbc, Qcc, qb, qc = _split(problem)
    m = problem.m_simplex
    X = np.empty((0, m + 1))
    if problem.n_free:
        try:
            X = solve_spd(Qcc, np.column_stack([Qbc.T, 0.5 * qc]))
        except (NotPositiveDefinite, NotSymmetric) as e:
            raise NotPsd(f"free block of Q is not positive semidefinite: {e}") from e
    W, c0 = -X[:, :m], -X[:, m]
    S = Qbb + Qbc @ W
    S = 0.5 * (S + S.T)
    if np.linalg.eigvalsh(S)[0] < -1e-8 * max(abs(S).max(), 1.0):
        raise NotPsd("reduced Hessian has a significantly negative eigenvalue")
    b, steps = _active_set(S, qb + 2.0 * (Qbc @ c0))
    c = W @ b + c0
    return QpSolution(b=b, c_free=c, objective=problem.objective(b, c),
                      kkt_residual=kkt_residual(problem, b, c), iterations=steps)

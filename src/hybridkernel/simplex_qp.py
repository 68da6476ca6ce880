"""The simplex-constrained QP min b'Sb + s'b over {b >= 0, sum b = 1}, S PSD.

Objective convention: no 1/2 factor, constant terms dropped. The callers
hand over the reduced problem: each eliminates its unconstrained block by the
structure it has (hybrid_static.fit_mixture through the Gram factor,
koopman.hybrid_generator_problem through one N x N solve). The problem is
solved exactly by a primal active-set method, which ends after finitely many
steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotConverged, NotPsd, NotSymmetric
from .linalg import SYMMETRY_RTOL, _check_finite, _max_asymmetry

# The active-set method takes at most this many steps per simplex weight
# before it raises NotConverged. The paper's QPs take at most 1 step in all,
# random ones (m <= 40, singular S included) at most 1.2 per weight.
MAX_STEPS_PER_WEIGHT = 10
# Gradient gaps and curvatures below this fraction of max(|S|, |s|) count as 0.
GAP_RTOL = 1e-13


@dataclass
class QpSolution:
    b: np.ndarray
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


def kkt_residual(S, s, b) -> float:
    """Simplex stationarity violation ||b - proj(b - grad f(b))|| of f = b'Sb + s'b."""
    b = np.asarray(b, dtype=float).ravel()
    return float(np.linalg.norm(b - project_simplex(b - (2.0 * (S @ b) + s))))


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


def solve(S, s) -> QpSolution:
    """Solve min b'Sb + s'b over the simplex exactly.

    S must be finite, m x m for the m entries of s, and symmetric to
    SYMMETRY_RTOL * max(|S|, 1); it is symmetrized. NotPsd if S has an
    eigenvalue below -tau, tau = 1e-8 max(|S|, 1): S + tau I then has no
    Cholesky factor (up to the factorization's rounding at the threshold);
    NotConverged if the active-set method takes more than
    MAX_STEPS_PER_WEIGHT steps per weight.
    """
    S = np.asarray(S, dtype=float)
    s = np.asarray(s, dtype=float).ravel()
    if s.size < 1 or S.shape != (s.size, s.size):
        raise DimensionMismatch(f"S is {S.shape} for s of length {s.size}")
    _check_finite(S, "S")
    _check_finite(s, "s")
    if _max_asymmetry(S) > SYMMETRY_RTOL * max(S.max(), -S.min(), 1.0):
        raise NotSymmetric("S must be symmetric")
    S = 0.5 * (S + S.T)
    try:
        np.linalg.cholesky(S + 1e-8 * max(abs(S).max(), 1.0) * np.eye(s.size))
    except np.linalg.LinAlgError:
        raise NotPsd("S has a significantly negative eigenvalue") from None
    b, steps = _active_set(S, s)
    return QpSolution(b=b, objective=float(b @ S @ b + s @ b),
                      kkt_residual=kkt_residual(S, s, b), iterations=steps)

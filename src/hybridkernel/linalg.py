"""Dense linear algebra primitives: jittered SPD solves, least squares, kron, vec.

All solvers validate finiteness and shape up front and raise the shared
exception types instead of letting numpy errors escape.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric

# Jitter schedule for near-singular SPD systems: start at JITTER_INIT * trace/dim,
# multiply by 10 each retry, give up after MAX_JITTER_RETRIES (so the largest
# jitter ever applied is 1e-6 * trace/dim).
JITTER_INIT = 1e-12
MAX_JITTER_RETRIES = 6
SYMMETRY_RTOL = 1e-10


def _as_2d(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionMismatch(f"expected 1- or 2-dimensional array, got ndim={a.ndim}")
    return a


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch(f"{name} contains NaN/Inf entries")


def cholesky_with_jitter(M) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of M, escalating a diagonal jitter on failure.

    Returns (L, jitter_used). Raises NotPositiveDefinite once the jitter
    budget (1e-6 * trace/dim) is exhausted.
    """
    M = _as_2d(M)
    _check_finite(M, "matrix")
    dim = M.shape[0]
    if M.shape[1] != dim:
        raise DimensionMismatch(f"matrix is {M.shape}, not square")
    scale = max(abs(M).max(), 1.0)
    if abs(M - M.T).max() > SYMMETRY_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric to tolerance")
    base = JITTER_INIT * max(np.trace(M) / dim, np.finfo(float).tiny)
    jitter = 0.0
    for attempt in range(MAX_JITTER_RETRIES + 1):
        try:
            L = scipy.linalg.cholesky(M + jitter * np.eye(dim) if jitter else M, lower=True)
            return L, jitter
        except scipy.linalg.LinAlgError:
            jitter = base * 10.0**attempt
    raise NotPositiveDefinite("Cholesky failed after jitter escalation")


def solve_spd(M, rhs) -> np.ndarray:
    """Solve M X = rhs for symmetric (near-)positive-definite M.

    Output shape matches rhs (a 1-D rhs yields a 1-D solution).
    """
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


def solve_least_squares(A, B) -> np.ndarray:
    """Minimize ||A X - B||_F via normal equations with the jittered SPD solve."""
    A = _as_2d(A)
    B_arr = np.asarray(B, dtype=float)
    was_1d = B_arr.ndim == 1
    B2 = _as_2d(B_arr)
    _check_finite(A, "A")
    _check_finite(B2, "B")
    if A.shape[0] < A.shape[1]:
        raise DimensionMismatch(f"A is {A.shape}: fewer rows than columns")
    if B2.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"B has {B2.shape[0]} rows, A has {A.shape[0]}")
    X = solve_spd(A.T @ A, A.T @ B2)
    return X[:, 0] if was_1d else X


def kron(A, B) -> np.ndarray:
    """Kronecker product; block (i, j) is a_ij * B."""
    return np.kron(_as_2d(A), _as_2d(B))


def vec(A) -> np.ndarray:
    """Column-major vectorization (stack columns)."""
    return _as_2d(A).flatten(order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of vec for a rows x cols matrix."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise DimensionMismatch(f"vector of length {v.size} cannot fill a {rows}x{cols} matrix")
    return v.reshape((rows, cols), order="F")

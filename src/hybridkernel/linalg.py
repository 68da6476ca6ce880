"""Dense linear algebra primitives: jittered SPD solves, least squares, unvec.

All solvers validate finiteness and shape up front and raise the shared
exception types instead of letting numpy errors escape.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric

# Jitter schedule for near-singular SPD systems: try no jitter, then
# JITTER_INIT * trace/dim, multiplying by 10 on each of the MAX_JITTER_RETRIES
# retries, so the largest jitter ever applied is 1e-7 * trace/dim.
JITTER_INIT = 1e-12
MAX_JITTER_RETRIES = 6
SYMMETRY_RTOL = 1e-10
SYMMETRY_TILE = 128  # the symmetry check compares 128 x 128 tiles, not whole matrices


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


def _max_asymmetry(M: np.ndarray) -> float:
    """max |M - M'|, from the tiles on and above the diagonal against the
    transposed tiles below it, without an n x n temporary."""
    t, worst = SYMMETRY_TILE, 0.0
    for i in range(0, M.shape[0], t):
        for j in range(i, M.shape[0], t):
            worst = max(worst, float(np.abs(M[i:i + t, j:j + t] - M[j:j + t, i:i + t].T).max()))
    return worst


def cholesky_with_jitter(M) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of M, escalating a diagonal jitter on failure.

    Returns (L, jitter_used). Raises NotPositiveDefinite once the jitter
    budget (1e-7 * trace/dim) is exhausted. M itself is never written.
    """
    M = _as_2d(M)
    dim = M.shape[0]
    if M.shape[1] != dim:
        raise DimensionMismatch(f"matrix is {M.shape}, not square")
    hi, lo = M.max(), M.min()
    _check_finite(np.array([hi, lo]), "matrix")  # NaN and +-Inf show up in max and min
    asymmetry = _max_asymmetry(M)
    if asymmetry > SYMMETRY_RTOL * max(hi, -lo, 1.0):
        raise NotSymmetric("matrix is not symmetric to tolerance")
    base = JITTER_INIT * max(np.trace(M) / dim, np.finfo(float).tiny)
    jitter = 0.0
    for attempt in range(MAX_JITTER_RETRIES + 1):
        # LAPACK factors this private Fortran-ordered copy in place; an exactly
        # symmetric M equals M', whose copy is plain, not transposing (faster)
        A = np.array(M if asymmetry else M.T, order="F")
        if jitter:
            A.flat[::dim + 1] += jitter
        try:
            L = scipy.linalg.cholesky(A, lower=True, overwrite_a=True, check_finite=False)
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
    X = scipy.linalg.cho_solve((L, True), B, check_finite=False)
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


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """The rows x cols matrix whose column-major vectorization is v."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise DimensionMismatch(f"vector of length {v.size} cannot fill a {rows}x{cols} matrix")
    return v.reshape((rows, cols), order="F")

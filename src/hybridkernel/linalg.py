"""Dense linear algebra primitives: jittered SPD solves, a low-rank factor of
a PSD matrix with shifted solves from it, least squares.

All solvers validate finiteness and shape up front and raise the shared
exception types instead of letting numpy errors escape.

The SPD factorization and solve (dpotrf, dpotrs) and the pivoted Cholesky
(dpstrf) call the LAPACK in numpy's own OpenBLAS through ctypes, which
releases the GIL during the call, so threads solve on separate cores.
"""

from __future__ import annotations

import ctypes
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatch, DomainError, NotPositiveDefinite, NotPsd, NotSymmetric

# Jitter schedule for near-singular SPD systems: try no jitter, then
# JITTER_INIT * trace/dim, multiplying by 10 on each of the MAX_JITTER_RETRIES
# retries, so the largest jitter ever applied is 1e-7 * trace/dim.
JITTER_INIT = 1e-12
MAX_JITTER_RETRIES = 6
SYMMETRY_RTOL = 1e-10
SYMMETRY_TILE = 128  # the symmetry check compares 128 x 128 tiles, not whole matrices
# A shifted solve refines against the exact matrix for at most this many
# steps. Each one contracts the error by tail/lam < 1/10 or better, so the
# cap takes even the slowest case from its first error (< 1/10) below eps;
# refinement usually stops after two steps, once the correction has reached
# rounding level and no longer halves.
MAX_REFINEMENT_STEPS = 16

def _lapack(name: str, *argtypes):
    """numpy's LAPACK routine `name` (looked up through numpy's linalg extension,
    which links it) as a CDLL function, whose calls release the GIL; Fortran's
    hidden length of the character argument comes last (C routines ignore it)."""
    symbol = f"scipy_{name}_64_"
    routine = getattr(ctypes.CDLL(_umath_linalg.__file__), symbol, None)
    if routine is None:
        raise ImportError(f"hybridkernel needs the ILP64 scipy-openblas64 LAPACK of numpy's "
                          f"wheels; numpy {np.__version__} has no {symbol}")
    routine.argtypes, routine.restype = (*argtypes, ctypes.c_size_t), None
    return routine


# dpotrf(uplo, n, a, lda, info), dlaset(uplo, m, n, alpha, beta, a, lda),
# dpotrs(uplo, n, nrhs, a, lda, b, ldb, info), dpstrf(uplo, n, a, lda, piv,
# rank, tol, work, info): arrays by address, scalars by pointer, 64-bit integers
_CHAR, _INT, _DBL, _ADDR = (ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64),
                            ctypes.POINTER(ctypes.c_double), ctypes.c_void_p)
_dpotrf = _lapack("dpotrf", _CHAR, _INT, _ADDR, _INT, _INT)
_dlaset = _lapack("dlaset", _CHAR, _INT, _INT, _DBL, _DBL, _ADDR, _INT)
_dpotrs = _lapack("dpotrs", _CHAR, _INT, _INT, _ADDR, _INT, _ADDR, _INT, _INT)
_dpstrf = _lapack("dpstrf", _CHAR, _INT, _ADDR, _INT, _ADDR, _INT, _DBL, _ADDR, _INT)


def _lapack_info(routine, name: str, *args) -> int:
    """Call routine(*args, &info, 1) and return info; info < 0 names a bad argument."""
    info = ctypes.c_int64()
    routine(*args, ctypes.byref(info), 1)
    if info.value < 0:
        raise DimensionMismatch(f"{name} rejected argument {-info.value}")
    return info.value


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


def _tile_pairs(M: np.ndarray):
    """Each tile of M on and above the diagonal, its mirror tile below it, and
    whether the two are the same diagonal tile."""
    t = SYMMETRY_TILE
    for i in range(0, M.shape[0], t):
        for j in range(i, M.shape[0], t):
            yield M[i:i + t, j:j + t], M[j:j + t, i:i + t], i == j


def _max_asymmetry(M: np.ndarray) -> float:
    """max |M - M'|, tile against mirror tile, without an n x n temporary."""
    return max(float(np.abs(up - low.T).max()) for up, low, _ in _tile_pairs(M))


def _mirror(A: np.ndarray) -> None:
    """Copy A's strict upper triangle onto its strict lower one, tile by tile,
    without an n x n temporary (A' for the other way)."""
    for up, low, diagonal in _tile_pairs(A):
        np.copyto(low, up.T, where=np.tri(*low.shape, -1, dtype=bool) if diagonal else True)


def _symmetric(M) -> tuple[np.ndarray, float]:
    """M as a finite square float array that is symmetric to tolerance, and
    its max |M - M'|."""
    M = _as_2d(M)
    if M.shape[1] != M.shape[0]:
        raise DimensionMismatch(f"matrix is {M.shape}, not square")
    hi, lo = M.max(), M.min()
    _check_finite(np.array([hi, lo]), "matrix")  # NaN and +-Inf show up in max and min
    asymmetry = _max_asymmetry(M)
    if asymmetry > SYMMETRY_RTOL * max(hi, -lo, 1.0):
        raise NotSymmetric("matrix is not symmetric to tolerance")
    return M, asymmetry


def cholesky_with_jitter(M, overwrite: bool = False) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of M, escalating a diagonal jitter on failure.

    Returns (L, jitter_used). Raises NotPositiveDefinite once the jitter
    budget (1e-7 * trace/dim) is exhausted. LAPACK factors one n x n
    Fortran-ordered buffer in place. With overwrite=False it is a private
    copy and M is never written. With overwrite=True it is M's own memory
    when M is a writeable C- or F-contiguous float64 array (L then shares
    M's memory, and M's values are lost, also on error); otherwise a private
    copy.
    """
    M, asymmetry = _symmetric(M)
    dim = M.shape[0]
    with np.errstate(over="ignore"):  # a finite diagonal can sum past the largest double
        mean = np.trace(M) / dim
        if not np.isfinite(mean):
            mean = np.sum(M.diagonal() / dim)
    base = JITTER_INIT * max(mean, np.finfo(float).tiny)
    # the buffer holds M or, when M is not F-contiguous, M' (the same values
    # when M is exactly symmetric); dpotrf factors M's lower triangle
    S = M if M.flags.f_contiguous else M.T
    A = S if overwrite and S.flags.f_contiguous and S.flags.writeable else np.array(S, order="F")
    if asymmetry:  # within tolerance: mirror M's lower triangle onto the other
        _mirror(A.T if S is M else A)
    diagonal, jitter = A.diagonal().copy(), 0.0
    a = A.ctypes.data
    n, n1 = (ctypes.byref(ctypes.c_int64(d)) for d in (dim, dim - 1))
    zero = ctypes.byref(ctypes.c_double(0.0))
    for attempt in range(MAX_JITTER_RETRIES + 1):
        if jitter:  # dpotrf('L') never writes the strict upper triangle: restore from it
            _mirror(A)
            A.flat[::dim + 1] = diagonal + jitter
        if _lapack_info(_dpotrf, "dpotrf", b"L", n, a, n) == 0:
            # the strict upper triangle of A is that of A[:-1, 1:], which
            # dlaset sets to 0
            _dlaset(b"U", n1, n1, zero, zero, a + A.itemsize * dim, n, 1)
            return A, jitter
        jitter = base * 10.0**attempt
    raise NotPositiveDefinite("Cholesky failed after jitter escalation")


def solve_spd(M, rhs, overwrite: bool = False) -> np.ndarray:
    """Solve M X = rhs for symmetric (near-)positive-definite M.

    Output shape matches rhs (a 1-D rhs yields a 1-D solution). M is
    factored by cholesky_with_jitter with the same `overwrite`: False never
    writes M; True lets the factorization use M's memory, for a caller that
    built M for this one call.
    """
    M = _as_2d(M)
    rhs_arr = np.asarray(rhs, dtype=float)
    was_1d = rhs_arr.ndim == 1
    B = _as_2d(rhs_arr)
    _check_finite(B, "rhs")
    if B.shape[0] != M.shape[0]:
        raise DimensionMismatch(f"rhs has {B.shape[0]} rows, matrix has dimension {M.shape[0]}")
    X = _solve_factored(cholesky_with_jitter(M, overwrite)[0], B)
    return X[:, 0] if was_1d else X


def _solve_factored(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with L L' X = B for a Fortran-ordered lower factor L and a 2-D B."""
    X = np.array(B, order="F")  # dpotrs overwrites its right-hand side with X
    n, k = (ctypes.byref(ctypes.c_int64(d)) for d in B.shape)
    _lapack_info(_dpotrs, "dpotrs", b"L", n, k, L.ctypes.data, n, X.ctypes.data, n)
    return X


class LowRankFactor(NamedTuple):
    """G ~ W diag(mu) W' with orthonormal columns W; tail is the trace of the
    remainder, which bounds its 2-norm."""

    W: np.ndarray
    mu: np.ndarray
    tail: float


def low_rank_psd_factor(G) -> LowRankFactor:
    """Low-rank factor of a symmetric positive semidefinite G.

    LAPACK's pivoted Cholesky (dpstrf) stops once every remaining pivot is
    below n * eps * max diag G; the thin SVD of its un-pivoted n x r factor
    L = W diag(s) V' gives L L' = W diag(s^2) W'. The remainder G - L L' is
    then PSD up to rounding of order n * eps * ||G||_2, so its trace, tail =
    sum(diag G - rowsum L^2), bounds its norm up to that rounding. Only the
    remainder's diagonal is checked: NotPsd if an entry is below
    -n * eps * max diag G. G itself is never written.
    """
    G, _ = _symmetric(G)
    n = G.shape[0]
    diag = G.diagonal()
    tol = n * np.finfo(float).eps * max(diag.max(), 0.0)
    # dpstrf factors the lower triangle of a Fortran-ordered copy of G', which
    # is the upper triangle of G: a plain copy, not a transposing one
    C, piv, work = np.array(G.T, order="F"), np.empty(n, dtype=np.int64), np.empty(2 * n)
    rank, size = ctypes.c_int64(), ctypes.byref(ctypes.c_int64(n))
    _lapack_info(_dpstrf, "dpstrf", b"L", size, C.ctypes.data, size, piv.ctypes.data,
                 ctypes.byref(rank), ctypes.byref(ctypes.c_double(tol)), work.ctypes.data)
    L = np.zeros((n, rank.value))
    L[piv - 1] = np.tril(C[:, :rank.value])
    remainder = diag - np.einsum("ij,ij->i", L, L)
    if remainder.min() < -tol:
        raise NotPsd(f"matrix is not positive semidefinite (remainder diagonal "
                     f"{remainder.min():.3e})")
    W, s, _ = np.linalg.svd(L, full_matrices=False)
    return LowRankFactor(W=W, mu=s * s, tail=float(remainder.sum()))


def solve_shifted(G, factor: LowRankFactor, lam: float, rhs) -> np.ndarray:
    """Solve (G + lam I) x = rhs, for lam > 0, from the low-rank factor of G;
    rhs is (n,) or (n, k), and x has its shape.

    P = W diag(1/(mu + lam)) W' + (I - W W')/lam inverts W diag(mu) W' + lam I
    exactly. x = P rhs is refined against the exact G, x += P (rhs - G x -
    lam x), column by column until the column's correction no longer halves
    (it is then rounding noise, and is not applied), or for
    MAX_REFINEMENT_STEPS steps. Each step multiplies the error by a matrix of
    norm at most tail/lam, plus the factor's rounding (of order n eps max(mu))
    over lam; when the two reach lam/10 refinement need not contract, and
    G + lam I is factored densely instead; NotPositiveDefinite if that needs
    jitter, which would solve another lam.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise DomainError(f"lambda must be finite and positive, got {lam}")
    G = _as_2d(G)
    b = np.asarray(rhs, dtype=float)
    _check_finite(b, "rhs")
    if b.ndim not in (1, 2) or b.shape[0] != G.shape[0] or factor.W.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"rhs {b.shape} for matrix {G.shape} and factor "
                                f"{factor.W.shape}")
    if factor.tail + b.shape[0] * np.finfo(float).eps * factor.mu.max(initial=0.0) >= lam / 10:
        M = G.copy()
        M.flat[::M.shape[0] + 1] += lam
        L, jitter = cholesky_with_jitter(M, overwrite=True)
        if jitter:
            raise NotPositiveDefinite(f"G + lambda I needs Cholesky jitter at lambda={lam}")
        x = _solve_factored(L, _as_2d(b))
        return x[:, 0] if b.ndim == 1 else x
    W = factor.W
    # P = I/lam - W diag(shrink) W', shrink = 1/lam - 1/(mu + lam); past
    # lam = 1e150, lam (mu + lam) would overflow, and mu/lam is divided first
    shrink = (factor.mu / (lam * (factor.mu + lam)) if lam < 1e150
              else factor.mu / lam / (factor.mu + lam))
    if b.ndim == 2:
        shrink = shrink[:, None]

    def apply_p(v):
        return v / lam - W @ (shrink * (W.T @ v))

    x = apply_p(b)
    size = np.full(b.shape[1:], np.inf)  # a column that has stopped has size 0
    for _ in range(MAX_REFINEMENT_STEPS):
        dx = apply_p(b - G @ x - lam * x)
        # per column, the norm the contraction bound holds in
        new = np.linalg.norm(dx, axis=0) if b.ndim == 2 else np.linalg.norm(dx)
        halves = new < size / 2
        if not halves.any():
            break
        x += np.where(halves, dx, 0.0)
        size = np.where(halves, new, 0.0)
    return x


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

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
# Shifts refine in groups of at most max(n, REFINE_BLOCK / n) columns: a step
# streams G once per group, and at small n larger groups fall out of cache.
REFINE_BLOCK = 2 ** 14

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


def _square(M) -> np.ndarray:
    M = _as_2d(M)
    if M.shape[1] != M.shape[0]:
        raise DimensionMismatch(f"matrix is {M.shape}, not square")
    return M


def _symmetric(M) -> tuple[np.ndarray, float]:
    """M as a finite square float array that is symmetric to tolerance, and
    its max |M - M'|."""
    M = _square(M)
    hi, lo = M.max(), M.min()
    _check_finite(np.array([hi, lo]), "matrix")  # NaN and +-Inf show up in max and min
    asymmetry = _max_asymmetry(M)
    if asymmetry > SYMMETRY_RTOL * max(hi, -lo, 1.0):
        raise NotSymmetric("matrix is not symmetric to tolerance")
    return M, asymmetry


def _lower_finite(A: np.ndarray) -> bool:
    """Whether A's lower triangle, diagonal included, is finite, tile by tile."""
    return all(np.isfinite(low[np.tri(*low.shape, dtype=bool)] if diagonal else low).all()
               for _, low, diagonal in _tile_pairs(A))


def cholesky_with_jitter(M, overwrite: bool = False, refill=None) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of M, escalating a diagonal jitter on failure.

    Returns (L, jitter_used). Raises NotPositiveDefinite once the jitter
    budget (1e-7 * trace/dim) is exhausted. LAPACK factors one n x n
    Fortran-ordered buffer A in place: M, M' or a copy. With overwrite=False
    it is a private copy and M is never written. With overwrite=True it is
    M's own memory when M is a writeable C- or F-contiguous float64 array (L
    then shares M's memory, and M's values are lost, also on error);
    otherwise a private copy. dpotrf('L') reads and writes only A's lower
    triangle: a failed attempt restores its strict part from the strict
    upper triangle and its diagonal from a saved copy plus the next jitter,
    and the factor's strict upper triangle is set to 0.

    refill serves a caller that keeps other data in A's strict upper
    triangle. M is then not checked for symmetry, only A's lower triangle
    for finiteness; a failed attempt calls refill(A), which rewrites A's
    strict lower triangle, in place of the restore; and the factor's strict
    upper triangle keeps the caller's data.
    """
    M, asymmetry = _symmetric(M) if refill is None else (_square(M), 0.0)
    dim = M.shape[0]
    # the buffer holds M or, when M is not F-contiguous, M' (the same values
    # when M is exactly symmetric); dpotrf factors M's lower triangle
    S = M if M.flags.f_contiguous else M.T
    A = S if overwrite and S.flags.f_contiguous and S.flags.writeable else np.array(S, order="F")
    if refill is not None and not _lower_finite(A):
        raise DimensionMismatch("matrix contains NaN/Inf entries")
    if asymmetry:  # within tolerance: mirror M's lower triangle onto the other
        _mirror(A.T if S is M else A)
    with np.errstate(over="ignore"):  # a finite diagonal can sum past the largest double
        mean = np.trace(M) / dim
        if not np.isfinite(mean):
            mean = np.sum(M.diagonal() / dim)
    base = JITTER_INIT * max(mean, np.finfo(float).tiny)
    diagonal, jitter = A.diagonal().copy(), 0.0
    a = A.ctypes.data
    n, n1 = (ctypes.byref(ctypes.c_int64(d)) for d in (dim, dim - 1))
    zero = ctypes.byref(ctypes.c_double(0.0))
    for attempt in range(MAX_JITTER_RETRIES + 1):
        if jitter:  # dpotrf('L') never writes the strict upper triangle: restore from it
            (_mirror if refill is None else refill)(A)
            A.flat[::dim + 1] = diagonal + jitter
        if _lapack_info(_dpotrf, "dpotrf", b"L", n, a, n) == 0:
            if refill is None:
                # the strict upper triangle of A is that of A[:-1, 1:], which
                # dlaset sets to 0
                _dlaset(b"U", n1, n1, zero, zero, a + A.itemsize * dim, n, 1)
            return A, jitter
        jitter = base * 10.0**attempt
    raise NotPositiveDefinite("Cholesky failed after jitter escalation")


def solve_spd(M, rhs, overwrite: bool = False, refill=None) -> np.ndarray:
    """Solve M X = rhs for symmetric (near-)positive-definite M.

    Output shape matches rhs (a 1-D rhs yields a 1-D solution). M is
    factored by cholesky_with_jitter with the same `overwrite` and `refill`:
    overwrite=False never writes M; True lets the factorization use M's
    memory, for a caller that built M for this one call.
    """
    M = _as_2d(M)
    b = np.asarray(rhs, dtype=float)
    B = _as_2d(b)
    _check_finite(B, "rhs")
    if B.shape[0] != M.shape[0]:
        raise DimensionMismatch(f"rhs has {B.shape[0]} rows, matrix has dimension {M.shape[0]}")
    return _solve_factored(cholesky_with_jitter(M, overwrite, refill)[0], B).reshape(b.shape)


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


def solve_shifted(G, factor: LowRankFactor, lams, rhs) -> np.ndarray:
    """Solve (G + lam I) x = rhs for each shift lam > 0 of the 1-D grid lams,
    from the low-rank factor of G; rhs is (n,) or (n, k), and the solutions
    come stacked as (L,) + rhs.shape.

    P = W diag(1/(mu + lam)) W' + (I - W W')/lam inverts W diag(mu) W' + lam I
    exactly. x = P rhs is refined against the exact G, x += P (rhs - G x -
    lam x), one product by G per step for a group of shifts, until a column's
    correction no longer halves (it is then rounding noise, and is not
    applied) or for MAX_REFINEMENT_STEPS steps. A step multiplies the error by
    a matrix of norm at most tail/lam, plus the factor's rounding (n eps
    max(mu)) over lam; where the two reach lam/10, G + lam I is factored
    densely instead, NotPositiveDefinite if that needs jitter.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or not lams.size or not np.all(np.isfinite(lams) & (lams > 0)):
        raise DomainError(f"lambda must be a 1-D grid of finite positive values, got {lams}")
    G = _as_2d(G)
    b = np.asarray(rhs, dtype=float)
    _check_finite(b, "rhs")
    if b.ndim not in (1, 2) or b.shape[0] != G.shape[0] or factor.W.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"rhs {b.shape} for matrix {G.shape} and factor {factor.W.shape}")
    B = b.reshape(b.shape[0], -1)
    X = np.empty((lams.size,) + B.shape)
    dense = lams / 10 <= factor.tail + len(B) * np.finfo(float).eps * factor.mu.max(initial=0.0)
    for i in np.flatnonzero(dense):
        M = G.copy()
        M.flat[::M.shape[0] + 1] += lams[i]
        L, jitter = cholesky_with_jitter(M, overwrite=True)
        if jitter:
            raise NotPositiveDefinite(f"G + lambda I needs Cholesky jitter at lambda={lams[i]}")
        X[i] = _solve_factored(L, B)
        del M, L  # freed before the next shift's copy of G
    refined, n, k = np.flatnonzero(~dense), max(len(B), 1), max(B.shape[1], 1)
    group = max(1, max(n, REFINE_BLOCK // n) // k)  # shifts per refinement group
    for i in range(0, refined.size, group):
        X[refined[i:i + group]] = _refine(G, factor, lams[refined[i:i + group]], B)
    return X.reshape(lams.shape + b.shape)


def _refine(G: np.ndarray, factor: LowRankFactor, lams: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The (L, n, k) refined solutions of solve_shifted, the n x Lk columns side
    by side in each product; a column leaves the products once it stops."""
    (n, k), W = B.shape, factor.W
    # P = I/lam - W diag(shrink) W', shrink = 1/lam - 1/(mu + lam); past
    # lam = 1e150, lam (mu + lam) would overflow, and mu/lam is divided first
    shrink = np.repeat(np.stack([factor.mu / (lam * (factor.mu + lam)) if lam < 1e150 else
                                 factor.mu / lam / (factor.mu + lam) for lam in lams], axis=1),
                       k, axis=1)
    shift, rhs = np.repeat(lams, k), np.tile(B, lams.size)
    X, on = np.empty_like(rhs), np.arange(rhs.shape[1])  # `on`: the columns still refining
    Xon, dX, size = np.zeros_like(rhs), rhs.copy(), np.full(on.size, np.inf)
    for _ in range(MAX_REFINEMENT_STEPS + 1):  # x = P rhs, then the steps
        WtR = W.T @ dX  # dX holds the residual rhs - G x - lam x; P of it goes in its place
        WtR *= shrink
        dX /= shift
        dX -= W @ WtR
        new = np.linalg.norm(dX, axis=0)  # per column, as the contraction bound holds
        halves = new < size / 2
        if not halves.all():  # a column whose correction no longer halves stops
            X[:, on[~halves]] = Xon[:, ~halves]
            on, Xon, dX, new = on[halves], Xon[:, halves], dX[:, halves], new[halves]
            shift, rhs, shrink = shift[halves], rhs[:, halves], shrink[:, halves]
        Xon += dX
        size = new
        if not on.size:
            break
        dX = G @ Xon
        np.subtract(rhs, dX, out=dX)
        dX -= shift * Xon
    X[:, on] = Xon
    return X.reshape(n, lams.size, k).transpose(1, 0, 2)


def solve_least_squares(A, B) -> np.ndarray:
    """Minimize ||A X - B||_F via normal equations with the jittered SPD solve."""
    A = _as_2d(A)
    B_arr = np.asarray(B, dtype=float)
    B2 = _as_2d(B_arr)
    _check_finite(A, "A")
    _check_finite(B2, "B")
    if A.shape[0] < A.shape[1]:
        raise DimensionMismatch(f"A is {A.shape}: fewer rows than columns")
    if B2.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"B has {B2.shape[0]} rows, A has {A.shape[0]}")
    return solve_spd(A.T @ A, A.T @ B2).reshape((-1,) + B_arr.shape[1:])

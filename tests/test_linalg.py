"""SPD solves with jitter escalation, the low-rank PSD factor and its shifted
solves, least squares, kron/vec identities."""

import ctypes

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybridkernel import linalg
from hybridkernel.errors import (DimensionMismatch, DomainError, NotPositiveDefinite, NotPsd,
                                 NotSymmetric)
from hybridkernel.kernels import KernelSpec, gram
from hybridkernel.linalg import (JITTER_INIT, MAX_JITTER_RETRIES, LowRankFactor,
                                 cholesky_with_jitter, low_rank_psd_factor, solve_least_squares,
                                 solve_shifted, solve_spd)
import oracles
from oracles import kron, unvec, vec


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], atol=1e-14)

    def test_diagonal(self):
        x = solve_spd(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0], atol=1e-14)

    def test_gram_residual(self):
        pts = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
        G = gram(KernelSpec(gamma=100.0), pts)
        rhs = np.ones(5)
        x = solve_spd(G, rhs)
        assert np.linalg.norm(G @ x - rhs) < 1e-8

    def test_residual_bound_random_spd(self):
        rng = np.random.default_rng(7)
        for dim in (2, 5, 17, 50):
            A = rng.standard_normal((dim, dim))
            M = A @ A.T + 1e-3 * np.eye(dim)
            rhs = rng.standard_normal((dim, 3))
            X = solve_spd(M, rhs)
            res = np.linalg.norm(M @ X - rhs, "fro")
            assert res <= 1e-8 * (1.0 + np.linalg.norm(rhs, "fro"))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            solve_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), np.ones(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_spd(np.eye(3), np.ones(2))

    def test_indefinite_raises_after_jitter(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(np.diag([1.0, -1.0]), np.ones(2))

    def test_jitter_cap(self):
        # Rank-deficient PSD matrix: jitter makes it solvable, and the jitter
        # applied never exceeds the documented budget of 1e-7 * trace/dim.
        M = np.outer(np.ones(4), np.ones(4))
        _, jitter = cholesky_with_jitter(M)
        assert jitter <= 1e-7 * np.trace(M) / 4 + 1e-30
        assert 10.0 ** (MAX_JITTER_RETRIES - 1) * JITTER_INIT == pytest.approx(1e-7)

    def test_last_jitter_step_still_factors(self):
        # eigenvalue -1e-8 against trace/dim ~ 0.5: the step 5e-9 is too small,
        # the last one, 1e-7 * trace/dim ~ 5e-8, factors it
        M = np.diag([1.0, -1e-8])
        L, jitter = cholesky_with_jitter(M)
        base = JITTER_INIT * (np.trace(M) / 2)
        assert jitter == base * 10.0 ** (MAX_JITTER_RETRIES - 1)
        np.testing.assert_allclose(L @ L.T, M + jitter * np.eye(2), rtol=1e-15, atol=0)

    def test_diagonal_summing_past_the_largest_double(self):
        # the trace overflows although M is finite: no RuntimeWarning, and the
        # jitter base is the mean of the diagonal
        assert cholesky_with_jitter(np.diag([1e308, 1e308]))[1] == 0.0
        M = np.diag([1e308, 1e308, -1e290])
        L, jitter = cholesky_with_jitter(M)
        assert jitter == JITTER_INIT * np.sum(np.diag(M) / 3)
        np.testing.assert_allclose(L @ L.T, M + jitter * np.eye(3), rtol=1e-15, atol=0)

    def test_needing_more_than_the_last_step_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_with_jitter(np.diag([1.0, -1e-7]))

    def test_input_is_not_written(self):
        M = np.outer(np.ones(3), np.ones(3))
        before = M.copy()
        cholesky_with_jitter(M)
        np.testing.assert_array_equal(M, before)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_overwrite_factors_in_the_input_memory(self, order):
        M = np.asarray(np.diag([4.0, 2.0, 1.0]) + 0.5, order=order)
        b = np.array([1.0, 2.0, 3.0])
        expected_L, expected_x = cholesky_with_jitter(M)[0], solve_spd(M, b)
        A = M.copy(order="K")
        L, _ = cholesky_with_jitter(A, overwrite=True)
        assert np.shares_memory(L, A) and np.array_equal(L, expected_L)
        np.testing.assert_array_equal(solve_spd(M.copy(order="K"), b, overwrite=True),
                                      expected_x)

    def test_preserves_1d_rhs(self):
        x = solve_spd(np.eye(2), np.array([1.0, 2.0]))
        assert x.shape == (2,)


class TestLapackBridge:
    @pytest.mark.parametrize("name", ["_dpotrf", "_dlaset", "_dpotrs", "_dpstrf"])
    def test_routines_release_the_gil(self, name):
        # a CDLL (CFUNCTYPE) foreign call releases the GIL while it runs; a
        # PyDLL (PYFUNCTYPE) one, with the pythonapi flag, would hold it
        routine = getattr(linalg, name)
        assert isinstance(routine, ctypes._CFuncPtr)
        assert routine._flags_ == ctypes.CFUNCTYPE(None)._flags_
        assert not routine._flags_ & ctypes._FUNCFLAG_PYTHONAPI

    def test_rejected_argument_raises(self, capfd):  # capfd keeps xerbla's message quiet
        A = np.eye(2, order="F")
        two, one = ctypes.byref(ctypes.c_int64(2)), ctypes.byref(ctypes.c_int64(1))
        with pytest.raises(DimensionMismatch, match="dpotrf rejected argument 4"):
            linalg._lapack_info(linalg._dpotrf, "dpotrf", b"L", two, A.ctypes.data, one)
        np.testing.assert_array_equal(A, np.eye(2))

    def test_missing_routine_is_an_import_error(self):
        with pytest.raises(ImportError, match="scipy-openblas64.*numpy.*no scipy_dnosuch_64_"):
            linalg._lapack("dnosuch")


def gram_1d(n: int, seed: int) -> np.ndarray:
    x = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, n))
    return gram(KernelSpec(gamma=100.0), x)


def solve_one(G, factor, lam, rhs):
    """solve_shifted on a grid of one shift."""
    X = solve_shifted(G, factor, [lam], rhs)
    assert X.shape == (1,) + np.shape(rhs)
    return X[0]


def is_dense(factor: LowRankFactor, n: int, lam: float) -> bool:
    """Whether solve_shifted factors G + lam I densely instead of refining."""
    return factor.tail + n * np.finfo(float).eps * factor.mu.max(initial=0.0) >= lam / 10


def condition(G, lam: float) -> float:
    """cond_2(G + lam I) of a PSD G."""
    e = np.linalg.eigvalsh(G)
    return (e.max() + lam) / (max(e.min(), 0.0) + lam)


class TestShiftedSolve:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(20, 120), st.floats(1e-3, 1.0), st.floats(1e-3, 5e-2),
           st.integers(0, 2 ** 31 - 1))
    def test_refinement_recovers_a_truncated_factor(self, n, lam, dropped, seed):
        # drop the eigenpairs of the factor below `dropped` * lam: the first
        # solve is off by up to 5 %, and refinement against the exact G must
        # bring it to the dense solve's accuracy. Where the dropped eigenvalues
        # sum to lam / 10 or more, solve_shifted solves densely instead, so
        # such a draw does not test refinement (n=35, lam=0.05078125,
        # dropped=0.05, seed=35 is one)
        G = gram_1d(n, seed)
        W, mu, tail = low_rank_psd_factor(G)
        keep = mu >= dropped * lam
        crude = LowRankFactor(W[:, keep], mu[keep], tail + mu[~keep].sum())
        assume(crude.tail < lam / 10)
        b = np.random.default_rng(seed).standard_normal(n)
        x = solve_one(G, crude, lam, b)
        x_dense = solve_spd(G + lam * np.eye(n), b)
        assert np.linalg.norm(x - x_dense) <= 1e-11 * np.linalg.norm(x_dense)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(20, 80), st.floats(1e-3, 1.0), st.sampled_from([0.0, 1e-2, 5e-2]),
           st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    def test_columns_match_their_1d_solves(self, n, lam, dropped, k, seed):
        # columns of scales 1e-8 to 1e8 converge at their own rates: one in
        # the factor's span at once, one where the factor was cut slowest;
        # each stops refining on its own, as its 1-D solve does
        G = gram_1d(n, seed)
        W, mu, tail = low_rank_psd_factor(G)
        keep = mu >= dropped * lam
        factor = LowRankFactor(W[:, keep], mu[keep], tail + mu[~keep].sum())
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((n, k))
        if not keep.all():
            B[:, 0::2] = W[:, keep] @ rng.standard_normal((np.count_nonzero(keep), (k + 1) // 2))
            B[:, 1::2] = W[:, ~keep] @ rng.standard_normal((np.count_nonzero(~keep), k // 2))
        B *= 10.0 ** rng.uniform(-8, 8, size=k)
        X = solve_one(G, factor, lam, B)
        assert X.shape == (n, k)
        for j in range(k):
            x = solve_one(G, factor, lam, B[:, j])
            assert np.linalg.norm(X[:, j] - x) <= 1e-12 * np.linalg.norm(x)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(20, 120), st.lists(st.floats(-3.0, 2.0), min_size=1, max_size=13),
           st.sampled_from([0.0, 1e-2, 5e-2]), st.sampled_from([None, 1, 3, 150]),
           st.integers(0, 2 ** 31 - 1))
    def test_grid_of_refined_shifts_is_within_the_conditioning_bound(self, n, exponents,
                                                                    dropped, k, seed):
        # a grid refines its shifts together, so G, W and W' multiply more
        # columns at once and round differently from one call per shift
        # (GEMM against GEMV). Both results are refined solutions whose
        # normwise backward error is at most eps, so each is within
        # cond_2(G + lam I) eps of the exact solution (Higham 2002, "Accuracy
        # and Stability of Numerical Algorithms", Theorem 7.2), and the two are
        # within twice that of each other; draws up to n = 120 reached 0.54 of
        # one cond eps. Columns of scales 1e-8 to 1e8 each keep their own
        # bound, against a call per shift and against the per-shift oracle.
        # With 150 columns the shifts refine in groups of 1 to 5
        lams = 10.0 ** np.array(exponents)
        G = gram_1d(n, seed)
        W, mu, tail = low_rank_psd_factor(G)
        keep = mu >= dropped * lams.min()
        factor = LowRankFactor(W[:, keep], mu[keep], tail + mu[~keep].sum())
        assume(not any(is_dense(factor, n, lam) for lam in lams))
        rng = np.random.default_rng(seed)
        B = rng.standard_normal(n if k is None else (n, k))
        B *= 10.0 ** rng.uniform(-8, 8, size=B.shape[1:])
        X = solve_shifted(G, factor, lams, B)
        assert X.shape == (lams.size,) + B.shape
        for lam, x_grid in zip(lams, X):
            bound = 2 * condition(G, lam) * np.finfo(float).eps
            for x in (solve_one(G, factor, lam, B), oracles.solve_shifted(G, factor, lam, B)):
                gap = np.linalg.norm((x_grid - x).reshape(n, -1), axis=0)
                assert np.all(gap <= bound * np.linalg.norm(x.reshape(n, -1), axis=0))

    @pytest.mark.parametrize("rhs_shape", [(400,), (400, 3)], ids=["1-D", "2-D"])
    def test_grid_of_dense_shifts_gives_the_bits_of_one_call_per_shift(self, rhs_shape):
        # every shift of the grid takes the dense path, where a grid solves one
        # shift at a time exactly as a call per shift does
        n = 400
        G = gram_1d(n, seed=4)
        factor = low_rank_psd_factor(G)
        lams = np.geomspace(1e-12, 5e-11, 6)[::-1]
        assert all(is_dense(factor, n, lam) for lam in lams)
        B = np.random.default_rng(4).standard_normal(rhs_shape)
        X = solve_shifted(G, factor, lams, B)
        assert X.shape == (lams.size,) + B.shape
        for lam, x in zip(lams, X):
            assert x.tobytes() == solve_one(G, factor, lam, B).tobytes()
            assert x.tobytes() == oracles.solve_shifted(G, factor, lam, B).tobytes()
            assert x.tobytes() == solve_spd(G + lam * np.eye(n), B).tobytes()

    def test_grid_that_mixes_dense_and_refined_shifts(self):
        # the two paths fill the rows of their own shifts, in the grid's order,
        # whichever path a shift takes and wherever it stands in the grid
        n = 400
        G = gram_1d(n, seed=4)
        factor = low_rank_psd_factor(G)
        lams = np.array([1.0, 1e-12, 1e-3, 100.0, 3e-11, 1e-12])
        dense = [is_dense(factor, n, lam) for lam in lams]
        assert dense == [False, True, False, False, True, True]
        B = np.random.default_rng(5).standard_normal((n, 2))
        X = solve_shifted(G, factor, lams, B)
        for lam, x, on_dense_path in zip(lams, X, dense):
            x_one = solve_one(G, factor, lam, B)
            if on_dense_path:
                assert x.tobytes() == x_one.tobytes()
            else:
                gap = np.linalg.norm(x - x_one, axis=0)
                bound = 2 * condition(G, lam) * np.finfo(float).eps
                assert np.all(gap <= bound * np.linalg.norm(x_one, axis=0))

    def test_shifts_refine_in_groups_of_bounded_columns(self, monkeypatch):
        # at n = 50, groups hold at most REFINE_BLOCK / n = 327 columns: three
        # shifts of 101 columns each, so 13 shifts make five groups, and each
        # shift's solution is the one its own call gives, within the bound
        n, k = 50, 101
        G = gram_1d(n, seed=6)
        factor = low_rank_psd_factor(G)
        lams = np.logspace(-3, 2, 13)
        assert not any(is_dense(factor, n, lam) for lam in lams)
        groups, refine = [], linalg._refine

        def recording(G, factor, lams, B):
            groups.append(lams.tolist())
            return refine(G, factor, lams, B)

        monkeypatch.setattr(linalg, "_refine", recording)
        B = np.random.default_rng(6).standard_normal((n, k))
        X = solve_shifted(G, factor, lams, B)
        assert groups[:5] == [lams[i:i + 3].tolist() for i in range(0, 13, 3)]
        for lam, x in zip(lams, X):
            x_one = solve_one(G, factor, lam, B)
            gap = np.linalg.norm(x - x_one, axis=0)
            bound = 2 * condition(G, lam) * np.finfo(float).eps
            assert np.all(gap <= bound * np.linalg.norm(x_one, axis=0))

    def test_truncated_factor_with_a_large_tail_solves_densely(self):
        # the draw named above: the dropped eigenvalues sum to just over lam / 10
        n, lam, dropped, seed = 35, 0.05078125, 0.05, 35
        G = gram_1d(n, seed)
        W, mu, tail = low_rank_psd_factor(G)
        keep = mu >= dropped * lam
        crude = LowRankFactor(W[:, keep], mu[keep], tail + mu[~keep].sum())
        assert crude.tail >= lam / 10
        b = np.random.default_rng(seed).standard_normal(n)
        x_dense = solve_spd(G + lam * np.eye(n), b)
        x = solve_one(G, crude, lam, b)
        assert np.linalg.norm(x - x_dense) <= 1e-11 * np.linalg.norm(x_dense)

    @pytest.mark.parametrize("lam", [1e200, 1e300])
    def test_huge_shift_gives_rhs_over_shift(self, lam):
        # lam (mu + lam) overflows past about 1.3e154; the shrink term
        # 1/lam - 1/(mu + lam) < mu/lam^2 is then lost next to 1/lam
        G = gram_1d(30, seed=3)
        factor = low_rank_psd_factor(G)
        B = np.random.default_rng(3).standard_normal((30, 3))
        for rhs in (B[:, 0], B):
            x = solve_one(G, factor, lam, rhs)
            assert x.shape == rhs.shape
            np.testing.assert_allclose(x, rhs / lam, rtol=1e-14)

    @pytest.mark.parametrize("n, lam", [(5, 1e-200), (2, 1e-320)])
    def test_tiny_shift_of_an_exact_factor_solves_densely(self, n, lam):
        # the factor's tail is 0 here, below lam / 10, but its rounding, of
        # order n eps max(mu), is not: (I - W W')/lam would scale it by 1/lam
        G = gram_1d(n, seed=3)
        factor = low_rank_psd_factor(G)
        assert factor.tail < lam / 10
        b = np.random.default_rng(3).standard_normal(n)
        M = G + lam * np.eye(n)
        np.testing.assert_array_equal(solve_one(G, factor, lam, b), solve_spd(M, b))

    def test_dense_fallback_factors_in_one_n_by_n_buffer(self):
        # the shifted copy of G is factored in place: a private copy of it
        # for the factorization held a second n x n buffer
        n, lam = 400, 1e-12
        G = gram_1d(n, seed=4)
        factor = low_rank_psd_factor(G)
        assert is_dense(factor, n, lam)
        b = np.random.default_rng(4).standard_normal(n)
        assert oracles.peak_traced_bytes(solve_shifted, G, factor, [lam], b) < 1.5 * 8 * n * n

    @pytest.mark.parametrize("lams", [np.geomspace(1e-12, 5e-11, 13), np.logspace(-12, 2, 13)],
                             ids=["13-dense-shifts", "13-mixed-shifts"])
    def test_dense_fallback_on_a_grid_holds_one_n_by_n_buffer(self, lams):
        # each dense shift's buffer is freed before the next shift copies G
        n = 400
        G = gram_1d(n, seed=4)
        factor = low_rank_psd_factor(G)
        assert sum(is_dense(factor, n, lam) for lam in lams) >= 2
        b = np.random.default_rng(4).standard_normal(n)
        assert oracles.peak_traced_bytes(solve_shifted, G, factor, lams, b) < 1.5 * 8 * n * n

    def test_full_rank_factor_is_exact(self):
        M = np.diag([4.0, 2.0, 1.0])
        factor = low_rank_psd_factor(M)
        # the pivots are square roots, so the remainder is zero up to rounding
        assert abs(factor.tail) <= 1e-15
        np.testing.assert_allclose(sorted(factor.mu), [1.0, 2.0, 4.0], rtol=1e-15)
        np.testing.assert_allclose(solve_one(M, factor, 1.0, np.array([5.0, 3.0, 2.0])),
                                   [1.0, 1.0, 1.0], rtol=1e-15)

    def test_rejects_an_indefinite_matrix(self):
        with pytest.raises(NotPsd):
            low_rank_psd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_rejects_a_bad_shift(self, lam):
        # anywhere in the grid, also after a good shift
        G = gram_1d(5, seed=1)
        for lams in ([lam], [1.0, lam]):
            with pytest.raises(DomainError):
                solve_shifted(G, low_rank_psd_factor(G), lams, np.ones(5))

    @pytest.mark.parametrize("lams", [[], np.ones((2, 2)), np.ones((1, 1)), 1.0],
                             ids=["empty", "2-D", "1-by-1", "scalar"])
    def test_rejects_a_grid_that_is_not_one_dimensional_or_is_empty(self, lams):
        G = gram_1d(5, seed=1)
        with pytest.raises(DomainError):
            solve_shifted(G, low_rank_psd_factor(G), lams, np.ones(5))

    def test_rejects_mismatched_rhs(self):
        G = gram_1d(5, seed=2)
        for rhs in (np.ones(4), np.ones((4, 2)), np.ones((5, 2, 2))):
            with pytest.raises(DimensionMismatch):
                solve_shifted(G, low_rank_psd_factor(G), [1.0], rhs)


class TestLeastSquares:
    def test_identity(self):
        np.testing.assert_allclose(
            solve_least_squares(np.eye(2), np.array([[1.0], [2.0]])),
            [[1.0], [2.0]], atol=1e-12)

    def test_mean_of_targets(self):
        X = solve_least_squares(np.array([[1.0], [1.0]]), np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(X, [[1.0]], atol=1e-12)

    def test_recovers_planted_solution(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((50, 6))
        X0 = rng.standard_normal((6, 2))
        X = solve_least_squares(A, A @ X0)
        np.testing.assert_allclose(X, X0, atol=1e-8)

    def test_gradient_condition(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 4))
        B = rng.standard_normal((40, 3))
        X = solve_least_squares(A, B)
        grad = np.linalg.norm(A.T @ (A @ X - B), "fro")
        assert grad <= 1e-6 * np.linalg.norm(A.T @ B, "fro")

    def test_rejects_underdetermined(self):
        with pytest.raises(DimensionMismatch):
            solve_least_squares(np.ones((2, 3)), np.ones((2, 1)))


class TestKronVec:
    def test_kron_identity_left(self):
        B = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(kron(np.eye(1), B), B)

    def test_kron_row_with_identity(self):
        out = kron(np.array([[1.0, 2.0]]), np.eye(2))
        np.testing.assert_array_equal(out, [[1, 0, 2, 0], [0, 1, 0, 2]])

    def test_vec_column_major(self):
        np.testing.assert_array_equal(vec(np.array([[1.0, 2.0], [3.0, 4.0]])),
                                      [1, 3, 2, 4])

    def test_vec_scalar(self):
        np.testing.assert_array_equal(vec(np.array([[5.0]])), [5.0])

    def test_unvec_round_trip(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 6))
        np.testing.assert_array_equal(unvec(vec(A), 4, 6), A)

    def test_vec_of_matrix_product(self):
        # vec(R Psi) = (Psi' kron I) vec(R)
        rng = np.random.default_rng(13)
        R = rng.standard_normal((3, 3))
        Psi = rng.standard_normal((3, 3))
        lhs = vec(R @ Psi)
        rhs = kron(Psi.T, np.eye(3)) @ vec(R)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_vec_sandwich_identity(self, seed):
        # vec(A X B) = (B' kron A) vec(X)
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 4))
        X = rng.standard_normal((4, 2))
        B = rng.standard_normal((2, 5))
        np.testing.assert_allclose(vec(A @ X @ B), kron(B.T, A) @ vec(X), atol=1e-12)

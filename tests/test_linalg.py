"""SPD solves with jitter escalation, least squares, kron/vec identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkernel.errors import DimensionMismatch, NotPositiveDefinite, NotSymmetric
from hybridkernel.kernels import KernelSpec, gram
from hybridkernel.linalg import (JITTER_INIT, MAX_JITTER_RETRIES, cholesky_with_jitter,
                                 solve_least_squares, solve_spd, unvec)
from oracles import kron, vec


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

    def test_needing_more_than_the_last_step_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_with_jitter(np.diag([1.0, -1e-7]))

    def test_input_is_not_written(self):
        M = np.outer(np.ones(3), np.ones(3))
        before = M.copy()
        cholesky_with_jitter(M)
        np.testing.assert_array_equal(M, before)

    def test_preserves_1d_rhs(self):
        x = solve_spd(np.eye(2), np.array([1.0, 2.0]))
        assert x.shape == (2,)


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

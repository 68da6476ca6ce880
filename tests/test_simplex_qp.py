"""Simplex projection and the simplex-constrained QP solver.

Problems with a free block are full problems of the test oracles, reduced to
the simplex QP by their dense Schur elimination."""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridkernel import experiments, hybrid_static, koopman, simplex_qp
from hybridkernel.errors import DimensionMismatch, NotPsd, NotSymmetric
from hybridkernel.simplex_qp import kkt_residual, project_simplex, solve
import oracles
from oracles import (SimplexQpProblem, eliminate_free_block, fista_solve, solve_full,
                     solve_unconstrained)


def random_problem(rng, m, n_free, strictly_convex=True):
    dim = m + n_free
    A = rng.standard_normal((dim + 2, dim))
    Q = A.T @ A
    if strictly_convex:
        Q += 0.1 * np.eye(dim)
    q_lin = rng.standard_normal(dim)
    return SimplexQpProblem(Q=Q, q_lin=q_lin, m_simplex=m, n_free=n_free)


def random_simplex(rng, m):
    v = rng.exponential(size=m)
    return v / v.sum()


class TestProjectSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(project_simplex([0.5, 0.5]), [0.5, 0.5], atol=1e-15)

    def test_clipping_case_against_brute_force(self):
        p = project_simplex([2.0, -1.0])
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-14)
        # brute-force grid confirms (1, 0) minimizes distance to (2, -1)
        grid = np.linspace(0, 1, 2001)
        cand = np.column_stack([grid, 1.0 - grid])
        d = np.sum((cand - np.array([2.0, -1.0])) ** 2, axis=1)
        np.testing.assert_allclose(cand[np.argmin(d)], p, atol=1e-3)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-50, 50, allow_nan=False))
    def test_constant_vector_maps_to_centroid(self, t):
        np.testing.assert_allclose(project_simplex([t, t, t]), np.ones(3) / 3,
                                   atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=20))
    def test_output_always_feasible(self, v):
        p = project_simplex(v)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) <= 1e-14 * max(1.0, np.abs(v).max())

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_projection_optimality(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-3, 3, size=6)
        p = project_simplex(v)
        for _ in range(50):
            other = random_simplex(rng, 6)
            assert np.sum((p - v) ** 2) <= np.sum((other - v) ** 2) + 1e-12


class TestProblemValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            solve(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

    @pytest.mark.parametrize("m, n_free, where", [(2, 0, "Q"), (1, 1, "Q"), (2, 1, "Q"),
                                                  (2, 0, "q_lin"), (1, 1, "q_lin")])
    def test_rejects_non_finite(self, m, n_free, where):
        # a NaN in the simplex block of a full problem reaches the reduced one,
        # where solve rejects it; it would otherwise reach project_simplex,
        # which fails with IndexError
        data = {"Q": np.eye(m + n_free), "q_lin": np.zeros(m + n_free)}
        data[where].flat[0] = np.nan
        S, s, _, _ = eliminate_free_block(SimplexQpProblem(m_simplex=m, n_free=n_free, **data))
        with pytest.raises(DimensionMismatch, match={"Q": "^S ", "q_lin": "^s "}[where]):
            solve(S, s)

    @pytest.mark.parametrize("S, s", [(np.eye(2), np.zeros(3)), (np.ones((2, 3)), np.zeros(2)),
                                      (np.empty((0, 0)), np.empty(0))])
    def test_rejects_mismatched_shapes(self, S, s):
        with pytest.raises(DimensionMismatch):
            solve(S, s)

    @pytest.mark.parametrize("scale", [1.0, 4.0, -4.0])
    def test_symmetry_threshold_is_inclusive(self, scale):
        # |S - S'|max may reach 1e-10 * max(|S|max, 1), not exceed it; with a
        # negative scale S passes the check and is then indefinite
        at = 1e-10 * abs(scale)
        with pytest.raises(NotPsd) if scale < 0 else contextlib.nullcontext():
            solve(np.array([[scale, at], [0.0, 1.0]]), np.zeros(2))
        with pytest.raises(NotSymmetric):
            solve(np.array([[scale, np.nextafter(at, 1.0)], [0.0, 1.0]]), np.zeros(2))

    def test_rejects_indefinite_free_block(self):
        # the oracles' dense elimination, through which the tests reduce
        # problems with a free block
        with pytest.raises(NotPsd):
            eliminate_free_block(SimplexQpProblem(Q=np.diag([1.0, -1.0]), q_lin=np.zeros(2),
                                                  m_simplex=1, n_free=1))

    def test_rejects_indefinite_reduced_hessian(self):
        with pytest.raises(NotPsd, match="negative eigenvalue"):
            solve(np.diag([1.0, -1.0]), np.zeros(2))

    @pytest.mark.parametrize("m", [2, 25, 100])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("seed", range(3))
    def test_psd_threshold_holds_outside_a_1e_6_band(self, m, scale, seed):
        # S = Q diag(lam) Q' with one eigenvalue at -tau (1 -+ 1e-6), tau =
        # 1e-8 max(|S|, 1): the Cholesky of S + tau I decides it as the
        # eigenvalue test would. Its rounding moved the decision by at most
        # 1.3e-8 tau over these cases, so the band leaves a margin of about 100
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        lam = np.concatenate([[0.0], rng.uniform(0.0, scale, m - 1)])
        tau = 1e-8 * max(abs((Q * lam) @ Q.T).max(), 1.0)
        for rel, raises in ((1.0 - 1e-6, False), (1.0 + 1e-6, True)):
            lam[0] = -tau * rel
            S = (Q * lam) @ Q.T
            with pytest.raises(NotPsd) if raises else contextlib.nullcontext():
                solve(0.5 * (S + S.T), np.zeros(m))

    def test_objective_convention(self):
        # f(b) = b'Sb + s'b with no 1/2 factor
        sol = solve(2.0 * np.eye(2), np.array([-1.0, -1.0]))
        np.testing.assert_allclose(sol.b, [0.5, 0.5], atol=1e-15)
        assert sol.objective == pytest.approx(2 * 0.25 + 2 * 0.25 - 1.0, abs=1e-15)


class TestSolve:
    def test_symmetric_two_weight_problem(self):
        sol = solve(2.0 * np.eye(2), np.array([-1.0, -1.0]))
        np.testing.assert_allclose(sol.b, [0.5, 0.5], atol=1e-8)
        assert sol.converged

    def test_degenerate_single_weight(self):
        rng = np.random.default_rng(1)
        prob = random_problem(rng, m=1, n_free=3)
        b, c, _ = solve_full(prob)
        np.testing.assert_array_equal(b, [1.0])
        # with b fixed, c is the exact conditional minimizer
        Qcc = prob.Q[1:, 1:]
        rhs = -(prob.Q[:1, 1:].T @ b + 0.5 * prob.q_lin[1:])
        np.testing.assert_allclose(Qcc @ c, rhs, atol=1e-8)

    def test_monte_carlo_dominance(self):
        rng = np.random.default_rng(2)
        prob = random_problem(rng, m=5, n_free=3)
        _, _, best = solve_full(prob)
        for _ in range(1000):
            b = random_simplex(rng, 5)
            c = rng.standard_normal(3)
            assert best <= prob.objective(b, c) + 1e-9

    def test_feasibility_of_returned_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            b, _, _ = solve_full(random_problem(rng, m=rng.integers(2, 9),
                                                n_free=int(rng.integers(0, 4))))
            assert np.all(b >= -1e-12)
            assert abs(b.sum() - 1.0) <= 1e-10

    def test_objective_never_above_feasible_start(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(0, 4))
            prob = random_problem(rng, m, n)
            _, _, best = solve_full(prob)
            start = prob.objective(np.full(m, 1.0 / m), np.zeros(n))
            assert best <= start + 1e-10

    def test_interior_minimizer_is_returned(self):
        # Unconstrained minimizer of ||b - g||^2 with g on the simplex interior.
        g = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(solve(np.eye(3), -2.0 * g).b, g, atol=1e-8)

    def test_small_negative_gap_is_followed(self):
        # f = 1 + 2 b1^2 - 1e-9 b1 on the simplex: the start vertex (1, 0) has
        # gap -1e-9 for weight 1, and the minimizer is b1 = 1e-9 / 4
        assert solve(np.eye(2), np.array([0.0, 2.0 - 1e-9])).b[1] == pytest.approx(
            2.5e-10, rel=1e-6)

    def test_ties_go_to_the_smallest_index(self):
        # f = b0 is minimized by every point with b0 = 0; of the best
        # vertices e1 and e2 the solve stays at the first
        np.testing.assert_array_equal(solve(np.zeros((3, 3)), np.array([1.0, 0.0, 0.0])).b,
                                      [0.0, 1.0, 0.0])

    def test_unconstrained_hook_matches_closed_form(self):
        rng = np.random.default_rng(5)
        prob = random_problem(rng, m=4, n_free=3)
        b, c, obj = solve_unconstrained(prob)
        z = np.linalg.solve(prob.Q, -0.5 * prob.q_lin)
        np.testing.assert_allclose(np.concatenate([b, c]), z, atol=1e-8)
        assert obj == pytest.approx(prob.objective(z[:4], z[4:]), abs=1e-10)


def _paper_problems():
    """The (S, s) of the closed-loop workload's 3 Koopman QPs and of the 13
    QPs of setting3 at seed 2, m = 25, as the experiments build them."""
    problems = []
    exact = simplex_qp.solve

    def record(S, s):
        problems.append((S, s))
        return exact(S, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_qp, "solve", record)
        experiments.run_koopman(n=200, seed=0, m=25, lambda_grid=(1e-4, 0.1, 100.0))
        experiments.run_setting3(n=50, seed=2, m=25)
    return problems


class TestAgainstFista:
    """The exact solve is no worse than the FISTA oracle, and stationary."""

    @staticmethod
    def check(S, s):
        sol, oracle = solve(S, s), fista_solve(S, s)
        assert sol.objective <= oracle.objective + 1e-12 * max(1.0, abs(sol.objective))
        assert sol.kkt_residual <= 1e-10
        assert np.all(sol.b >= 0.0) and abs(sol.b.sum() - 1.0) <= 1e-12

    # rank < m makes the reduced Hessian singular, as in setting3 at m = 100,
    # n = 50; a random linear term (not -2 A'y) makes f linear along its null space
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 30), n_free=st.integers(0, 6),
           rank=st.integers(1, 40), least_squares=st.booleans())
    @example(seed=0, m=100, n_free=50, rank=50, least_squares=True)
    def test_random_problems(self, seed, m, n_free, rank, least_squares):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((rank, m + n_free))
        Q = A.T @ A
        Q[m:, m:] += np.eye(n_free)  # the free block stays positive definite
        q = -2.0 * A.T @ rng.standard_normal(rank) if least_squares \
            else rng.standard_normal(m + n_free)
        S, s, _, _ = eliminate_free_block(SimplexQpProblem(Q=Q, q_lin=q, m_simplex=m,
                                                           n_free=n_free))
        self.check(S, s)

    def test_paper_problems(self):
        problems = _paper_problems()
        assert len(problems) == 3 + 13
        for S, s in problems:
            self.check(S, s)


def _recorded(module, name: str, run) -> list:
    """(args, kwargs, result) of every call of module.name while run() runs."""
    calls, fit = [], getattr(module, name)

    def record(*args, **kwargs):
        result = fit(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, record)
        run()
    return calls


class TestAgainstDenseSchur:
    """Each caller's structured reduction against the generic one: the full
    problem reduced by the dense Schur step of the test oracles, on every QP
    of the paper's static and Koopman sweeps."""

    def test_static_paper_mixtures(self):
        # seeds 0-3 x m = 25, 50, 100, one fit call per setting3 sweep that
        # fits its 13 lambda
        fits = _recorded(hybrid_static, "fit_mixture", lambda: [
            experiments.run_setting3(n=50, seed=seed, m=m)
            for seed in range(4) for m in (25, 50, 100)])
        assert len(fits) == 4 * 3
        for (design, grid), _, models in fits:
            assert len(grid) == len(models) == 13
            zero = np.zeros((design.F.shape[1],) * 2)
            for lam, model in zip(grid, models):
                b, c, _ = solve_full(oracles.mixture_problem(design, lam))
                oracle = oracles.objective(design, b, c, zero, lam)
                assert (oracles.objective(design, model.weights, model.coeffs, zero, lam)
                        <= oracle + 1e-12 * max(1.0, abs(oracle)))

    def test_koopman_sweep_fits(self):
        # seeds 0-1 x the 7 lambda_R of each koopman sweep
        fits = _recorded(koopman, "fit_hybrid_generator", lambda: [
            experiments.run_koopman(n=200, seed=seed, m=25) for seed in range(2)])
        assert len(fits) == 2 * 7
        for (design,), kwargs, (b, R, _) in fits:
            lam_b, lam_R, N = kwargs["lambda_b"], kwargs["lambda_R"], design.basis.N
            ob, oc, _ = solve_full(oracles.stacked_generator_problem(design, lam_b, lam_R))
            R_oracle = oracles.unvec(oc, N, N)
            assert np.linalg.norm(R - R_oracle) <= 1e-10 * np.linalg.norm(R_oracle)
            oracle = oracles.hybrid_generator_objective(design, lam_b, lam_R, ob, R_oracle)
            assert (oracles.hybrid_generator_objective(design, lam_b, lam_R, b, R)
                    <= oracle + 1e-12 * max(1.0, abs(oracle)))


class TestKktResidual:
    def test_zero_at_exact_solution_of_diagonal_problem(self):
        # min 2 b1^2 + 2 b2^2 - b1 - b2 over the simplex: optimum (0.5, 0.5)
        assert kkt_residual(2.0 * np.eye(2), np.array([-1.0, -1.0]), [0.5, 0.5]) <= 1e-10

    def test_positive_at_nonoptimal_point(self):
        # optimum is (1, 0); a shifted feasible point must violate stationarity
        assert kkt_residual(np.diag([1.0, 10.0]), np.zeros(2), [0.5, 0.5]) > 1e-8

"""Static hybrid fits: reference KRR, subspace joint fit, simplex mixture."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkernel import experiments, linalg, thermo_vle
from hybridkernel import hybrid_static as hs
from hybridkernel.errors import DimensionMismatch, DomainError
from hybridkernel.hybrid_static import Dataset
from hybridkernel.kernels import KernelSpec
import oracles

KX = KernelSpec(gamma=100.0)


def setting2_design(n, seed):
    """run_setting2's subspace training design."""
    train = hs.design(experiments.gex_dataset(n, seed), experiments.gex_reference,
                      KernelSpec(gamma=experiments.DEFAULT_GAMMA_X))
    return train.with_features(thermo_vle.margules_features)


def toy_dataset(n=12, seed=0, fn=np.sin):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, size=n))
    return Dataset(inputs=x, targets=fn(2 * np.pi * x))


class TestDataset:
    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Dataset(inputs=np.array([0.1, 0.2]), targets=np.array([1.0]))

    def test_rejects_near_duplicates(self):
        with pytest.raises(DomainError):
            Dataset(inputs=np.array([0.1, 0.1 + 1e-12]), targets=np.array([0.0, 1.0]))
        # 1-D inputs are checked sorted: here the pair is 499 positions apart
        x = np.random.default_rng(3).uniform(0.0, 1.0, size=500)
        x[-1] = x[0] + 5e-10
        with pytest.raises(DomainError):
            Dataset(inputs=x, targets=np.zeros(x.size))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Dataset(inputs=np.array([0.1, np.nan]), targets=np.array([0.0, 1.0]))

    def test_spacing_rule_matches_pairwise_distances(self):
        # the 1e-9 rule is the pairwise-distance rule, in 1-D and in 2-D
        for gap, rejected in ((0.5e-9, True), (2e-9, False)):
            x = np.array([0.7, 0.2, 0.7 + gap, 0.9])
            for inputs in (x, np.column_stack([x, np.zeros(4)])):
                if rejected:
                    with pytest.raises(DomainError):
                        Dataset(inputs=inputs, targets=np.zeros(4))
                else:
                    assert Dataset(inputs=inputs, targets=np.zeros(4)).size == 4


def fit_ref(data, reference, lam):
    (model,) = hs.fit_reference_krr(hs.design(data, reference, KX), [lam])
    return model


class TestReferenceKrr:
    def test_zero_residual_gives_zero_coeffs(self):
        data = toy_dataset()
        ref = lambda x: np.sin(2 * np.pi * np.asarray(x))
        for lam in (1e-3, 1.0, 1e3):
            model = fit_ref(data, ref, lam)
            np.testing.assert_allclose(model.coeffs, 0.0, atol=1e-10)
            np.testing.assert_allclose(model.predict(data.inputs.ravel()),
                                       data.targets, atol=1e-10)

    def test_single_point_closed_form(self):
        # G = [[1]], eta = 1, lambda = 1  ->  c = 1/(1+1) = 0.5
        data = Dataset(inputs=np.array([0.3]), targets=np.array([1.0]))
        model = fit_ref(data, lambda x: 0.0 * np.asarray(x), 1.0)
        assert model.coeffs[0] == pytest.approx(0.5, abs=1e-12)

    def test_small_lambda_beats_large_lambda(self):
        train = hs.design(toy_dataset(30, seed=0), lambda x: 0.0 * np.asarray(x), KX)
        val = train.at(toy_dataset(30, seed=1))
        small, large = hs.fit_reference_krr(train, [1e-3, 1e2])
        small_rmse, large_rmse = hs.rmse([small, large], val)
        assert small_rmse < large_rmse

    def test_grid_gives_one_model_per_lambda_in_grid_order(self):
        # one fit call per grid; each model is that lambda's own fit, within
        # the shifted solve's bound of 2 cond_2(G + lam I) eps (test_linalg)
        design = hs.design(toy_dataset(30, seed=0), lambda x: 0.0 * np.asarray(x), KX)
        grid = [1e2, 1e-3, 1.0, 1e-3]
        models = hs.fit_reference_krr(design, grid)
        assert len(models) == len(grid)
        eigenvalues = np.linalg.eigvalsh(design.K)
        for lam, model in zip(grid, models):
            (alone,) = hs.fit_reference_krr(design, [lam])
            cond = (eigenvalues.max() + lam) / (max(eigenvalues.min(), 0.0) + lam)
            gap = np.linalg.norm(model.coeffs - alone.coeffs)
            assert gap <= 2 * cond * np.finfo(float).eps * np.linalg.norm(alone.coeffs)
            assert model.weights.tolist() == [1.0]

    def test_pinning_limit(self):
        # lambda = 1e6 pins the model to the reference on a 101-point grid
        train = toy_dataset(30, seed=0)
        ref = lambda x: 0.25 * np.asarray(x)
        model = fit_ref(train, ref, 1e6)
        grid = np.linspace(0.0, 1.0, 101)
        dev = np.max(np.abs(model.predict(grid) - ref(grid)))
        target_range = train.targets.max() - train.targets.min()
        assert dev <= 1e-3 * target_range

    def test_interpolation_limit(self):
        # lambda = 1e-10 with separated inputs: training residual <= 1e-4
        x = np.linspace(0.0, 1.0, 40)  # spacing 0.026 >= 0.005
        data = Dataset(inputs=x, targets=np.cos(3 * x))
        model = fit_ref(data, lambda x: 0.0 * np.asarray(x), 1e-10)
        resid = np.max(np.abs(model.predict(x) - data.targets))
        assert resid <= 1e-4

    def test_to_json_fields(self):
        model = fit_ref(toy_dataset(), lambda x: 0.0 * np.asarray(x), 1.0)
        doc = json.loads(model.to_json(lambda_r=1.0))
        assert doc["lambda_r"] == 1.0
        assert doc["kernel"]["gamma"] == 100.0
        assert doc["weights"] == [1.0]
        assert len(doc["coeffs"]) == len(doc["anchors"])
        loaded = hs.HybridModel.from_json(model.to_json(), model.features)
        grid = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(loaded.predict(grid), model.predict(grid))


class TestSubspace:
    def test_zero_targets(self):
        x = np.linspace(0.05, 0.95, 10)
        data = Dataset(inputs=x, targets=np.zeros(10))
        design = hs.design(data, lambda x: np.stack([x, x ** 2], axis=-1), KX)
        (model,) = hs.fit_subspace(design, 1e-6, [1.0])
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-10)
        np.testing.assert_allclose(model.coeffs, 0.0, atol=1e-10)

    def test_ridge_limit_recovers_sample_mean(self):
        # constant feature, residual killed by huge lambda_r, tiny lambda_theta:
        # theta tends to the sample mean of the targets
        x = np.array([0.1, 0.5, 0.9])
        y = np.array([1.0, 2.0, 6.0])
        data = Dataset(inputs=x, targets=y)
        const = lambda x: np.ones(np.shape(np.asarray(x)) + (1,))
        (model,) = hs.fit_subspace(hs.design(data, const, KX), 1e-10, [1e10])
        assert model.weights[0] == pytest.approx(y.mean(), rel=1e-4)

    def test_joint_fit_dominance(self):
        # the joint optimum beats any fixed theta evaluated in the same objective
        data = toy_dataset(20, seed=2)
        fmap = lambda x: np.stack([np.asarray(x), np.asarray(x) ** 2], axis=-1)
        lt, lr = 1e-4, 0.1
        design = hs.design(data, fmap, KX)
        (model,) = hs.fit_subspace(design, lt, [lr])
        penalty = lt * np.eye(2)
        opt = oracles.objective(design, model.weights, model.coeffs, penalty, lr)
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta_hat = rng.standard_normal(2)
            # best c for this fixed theta comes from a reference KRR around it
            fixed = fit_ref(data, lambda x, t=theta_hat: fmap(x) @ t, lr)
            val = oracles.objective(design, theta_hat, fixed.coeffs, penalty, lr)
            assert opt <= val + 1e-8

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(st.integers(min_value=1, max_value=60), st.sampled_from([100, 257, 500])),
           st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(min_value=1, max_value=3))
    def test_joint_design_normal_matrix_is_exactly_symmetric(self, n, seed, p):
        # a joint buffer keeps D'D's strict lower triangle, and the fit reads
        # it for the upper one: numpy's D.T @ D (a symmetric rank-k update
        # whose triangle is copied), as fit_subspace forms it, must already
        # be symmetric
        rng = np.random.default_rng(seed)
        data = Dataset(inputs=rng.uniform(0.0, 1.0, size=n), targets=rng.standard_normal(n))
        fmap = lambda x: np.stack([np.asarray(x) ** k for k in range(1, p + 1)], axis=-1)
        design = hs.design(data, fmap, KX)
        D = np.hstack([design.F, design.K])
        M = np.empty((n + p, n + p))
        np.matmul(D.T, D, out=M)
        assert M.tobytes() == np.ascontiguousarray(M.T).tobytes()

    def test_joint_matrix_is_factored_in_its_own_memory(self, monkeypatch):
        # one worker's buffer serves the whole grid: the joint matrix of each
        # lambda goes into the buffer's free triangle and is factored there,
        # so no solve allocates an (n + 2)^2 array, and the grid holds no
        # more at once than one fit: the buffer beside D = [F, G]
        n = 400
        design = hs.design(toy_dataset(n, seed=6),
                           lambda x: np.stack([np.asarray(x), 1 - np.asarray(x)], axis=-1),
                           KX)
        unit = 8 * (n + 2) ** 2
        grid = (1e-3, 0.1, 1.0, 10.0)
        monkeypatch.setattr(hs, "worker_count", lambda: 1)
        # the whole fit, from building D to the last solve
        assert oracles.peak_traced_bytes(hs.fit_subspace, design, 1e-3, [1.0]) < 2.5 * unit
        assert oracles.peak_traced_bytes(hs.fit_subspace, design, 1e-3, grid) < 2.5 * unit

        # each solve on its own, in a separate run: the wrapper resets the peak
        solve_extra, solve_spd = [], hs.solve_spd

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            try:
                return solve_spd(*args, **kwargs)
            finally:
                solve_extra.append(tracemalloc.get_traced_memory()[1] - before)

        monkeypatch.setattr(hs, "solve_spd", measured)
        oracles.peak_traced_bytes(hs.fit_subspace, design, 1e-3, grid)
        assert len(solve_extra) == len(grid) and max(solve_extra) < 0.5 * unit

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_grid_fit_equals_the_full_matrix_path_per_lambda(self, monkeypatch, workers):
        # the setting2 --n 35 --seed 2 grid mixes jittered (J) and plain (.)
        # solves, so a worker's buffer also starts a fit from a jittered
        # factor, and each worker count deals the lambdas out differently
        design, lambda_theta = setting2_design(35, 2), experiments.DEFAULT_LAMBDA_THETA
        grid = experiments.DEFAULT_LAMBDA_GRID
        expected = [oracles.fit_subspace(design, lambda_theta, lam) for lam in grid]
        jittered, cholesky = {}, linalg.cholesky_with_jitter

        def recording(M, overwrite=False, refill=None):
            L, jitter = cholesky(M, overwrite, refill)
            jittered[refill.keywords["lambda_r"]] = bool(jitter)
            return L, jitter

        monkeypatch.setattr(linalg, "cholesky_with_jitter", recording)
        monkeypatch.setattr(hs, "worker_count", lambda: workers)
        models = hs.fit_subspace(design, lambda_theta, grid)
        assert len(models) == len(grid)
        for model, sol in zip(models, expected):
            assert model.weights.tobytes() == sol[:2].tobytes()
            assert model.coeffs.tobytes() == sol[2:].tobytes()
        assert "".join("J" if jittered[lam] else "." for lam in grid) == "JJJJ.J..J.JJJ"

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_workers_solve_in_separate_buffers(self, monkeypatch, workers):
        # one C-ordered (n + p)^2 buffer per worker, none sharing memory with
        # another, and no more workers than lambdas
        design = hs.design(toy_dataset(35, seed=8), lambda x: np.stack([x, 1 - x], axis=-1),
                           KX)
        buffers, solve_spd = {}, hs.solve_spd

        def recording(M, *args, **kwargs):
            buffers[id(M)] = M
            return solve_spd(M, *args, **kwargs)

        monkeypatch.setattr(hs, "solve_spd", recording)
        monkeypatch.setattr(hs, "worker_count", lambda: workers)
        assert len(hs.fit_subspace(design, 1e-3, (1e-2, 0.1, 1.0))) == 3
        bufs = list(buffers.values())
        assert len(bufs) == min(workers, 3)
        for M in bufs:
            assert M.shape == (37, 37) and M.dtype == np.float64 and M.flags.c_contiguous
        assert not any(np.shares_memory(a, b) for i, a in enumerate(bufs) for b in bufs[i + 1:])

    def test_every_attempt_factors_the_full_joint_matrix_and_keeps_dtd(self, monkeypatch):
        # dpotrf factors the buffer's upper triangle (the lower one of its
        # Fortran view): on every attempt, jittered or not, it must hold the
        # full joint matrix's bits, jitter on the diagonal only. D'D's
        # triangle stays as it was built, from fit to fit of the one buffer
        design, lambda_theta = setting2_design(35, 2), experiments.DEFAULT_LAMBDA_THETA
        grid = experiments.DEFAULT_LAMBDA_GRID
        factored, lapack_info, triangle = {}, linalg._lapack_info, hs._joint_triangle
        written = []  # (lambda_r, A) of each triangle write; A = M' of the buffer M

        def refill(A, **kwargs):
            written.append((kwargs["lambda_r"], A))
            triangle(A, **kwargs)

        def spy(routine, name, *args):
            if name == "dpotrf":
                lambda_r, A = written[-1]
                factored.setdefault(lambda_r, []).append(np.triu(A.T))
            return lapack_info(routine, name, *args)

        monkeypatch.setattr(hs, "_joint_triangle", refill)
        monkeypatch.setattr(linalg, "_lapack_info", spy)
        monkeypatch.setattr(hs, "worker_count", lambda: 1)
        hs.fit_subspace(design, lambda_theta, grid)
        D = np.hstack([design.F, design.K])
        assert all(A.ctypes.data == written[0][1].ctypes.data for _, A in written)
        assert np.tril(written[0][1].T, -1).tobytes() == np.tril(D.T @ D, -1).tobytes()
        attempts = []
        for lam in grid:
            M = oracles.joint_matrix(design, lambda_theta, lam)
            base = linalg.JITTER_INIT * (np.trace(M) / len(M))
            for attempt, got in enumerate(factored[lam]):
                expected = M.copy()
                if attempt:
                    expected.flat[::len(M) + 1] += base * 10.0 ** (attempt - 1)
                assert got.tobytes() == np.triu(expected).tobytes()
            attempts.append(len(factored[lam]))
        assert "".join("J" if a > 1 else "." for a in attempts) == "JJJJ.J..J.JJJ"

    @pytest.mark.parametrize("lambda_r", [1e-12, 1e308, 1.7e308])
    def test_extreme_lambda_r_equals_the_full_matrix_path(self, lambda_r):
        # from 1e308 on, the joint matrix's trace overflows and the jitter
        # base comes from its fallback, the mean of the diagonal
        design, lambda_theta = setting2_design(50, 0), experiments.DEFAULT_LAMBDA_THETA
        with np.errstate(over="ignore"):
            trace = np.trace(oracles.joint_matrix(design, lambda_theta, lambda_r))
        assert np.isfinite(trace) == (lambda_r < 1e308)
        (model,) = hs.fit_subspace(design, lambda_theta, [lambda_r])
        expected = oracles.fit_subspace(design, lambda_theta, lambda_r)
        assert model.weights.tobytes() == expected[:2].tobytes()
        assert model.coeffs.tobytes() == expected[2:].tobytes()

    def test_features_whose_normal_block_overflows_raise(self):
        # F'F is inf: the triangle dpotrf would read is not finite
        huge = lambda x: 1e200 * np.stack([np.asarray(x), 1 - np.asarray(x)], axis=-1)
        design = hs.design(toy_dataset(20, seed=9), huge, KX)
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(DimensionMismatch):
            hs.fit_subspace(design, 1e-3, [1.0])

    def test_objective_matches_solution(self):
        data = toy_dataset(15, seed=4)
        fmap = lambda x: np.stack([np.asarray(x), 1 - np.asarray(x)], axis=-1)
        design = hs.design(data, fmap, KX)
        (model,) = hs.fit_subspace(design, 1e-3, [1.0])
        # perturbing the solution can only increase the objective
        penalty = 1e-3 * np.eye(2)
        base = oracles.objective(design, model.weights, model.coeffs, penalty, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            dt = 1e-3 * rng.standard_normal(2)
            dc = 1e-3 * rng.standard_normal(data.size)
            assert base <= oracles.objective(design, model.weights + dt, model.coeffs + dc,
                                             penalty, 1.0) + 1e-10


def fit_mix(data, family, thetas, lambda_r):
    """Mixture fit of an array family: family(x, thetas) is (n, m)."""
    (model,) = hs.fit_mixture(hs.design(data, lambda x: family(x, thetas), KX), [lambda_r])
    return model


class TestMixture:
    def test_theta_independent_family_reduces_to_reference_krr(self):
        data = toy_dataset(15, seed=6, fn=lambda t: np.sin(t) + 0.3)
        hbar = lambda x: 0.2 + 0.5 * np.asarray(x)
        family = lambda x, thetas: np.add.outer(hbar(x), np.zeros(len(thetas)))
        thetas = np.random.default_rng(7).uniform(0, 1, size=(8, 2))
        mix = fit_mix(data, family, thetas, lambda_r=0.5)
        ref = fit_ref(data, hbar, 0.5)
        grid = np.linspace(0, 1, 50)
        np.testing.assert_allclose(mix.predict(grid), ref.predict(grid), atol=1e-6)

    def test_single_parameter_sample(self):
        data = toy_dataset(12, seed=8)
        family = lambda x, thetas: np.multiply.outer(x, thetas[:, 0])
        mix = fit_mix(data, family, np.array([[0.4, 0.0]]), lambda_r=1.0)
        np.testing.assert_array_equal(mix.weights, [1.0])
        ref = fit_ref(data, lambda x: 0.4 * np.asarray(x), 1.0)
        grid = np.linspace(0, 1, 50)
        np.testing.assert_allclose(mix.predict(grid), ref.predict(grid), atol=1e-8)

    def test_weights_feasible_and_objective_matches(self):
        data = toy_dataset(15, seed=9)
        family = lambda x, thetas: (np.multiply.outer(x, thetas[:, 0])
                                    + np.multiply.outer(x ** 2, thetas[:, 1]))
        thetas = np.random.default_rng(10).uniform(0, 1, size=(6, 2))
        design = hs.design(data, lambda x: family(x, thetas), KX)
        (mix,) = hs.fit_mixture(design, [0.5])
        assert np.all(mix.weights >= -1e-12)
        assert abs(mix.weights.sum() - 1.0) <= 1e-10
        # the full QP over [b; c], reduced by the oracles' dense Schur step
        problem = oracles.mixture_problem(design, 0.5)
        b, c, full = oracles.solve_full(problem)
        np.testing.assert_allclose(b, mix.weights, atol=1e-10)
        direct = oracles.objective(design, mix.weights, mix.coeffs, np.zeros((6, 6)), 0.5)
        assert full + data.targets @ data.targets == pytest.approx(direct, abs=1e-8)
        assert problem.objective(mix.weights, mix.coeffs) <= full + 1e-12

    def test_effective_parameter(self):
        thetas = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(
            hs.effective_parameter(np.array([0.0, 1.0, 0.0, 0.0]), thetas), [1.0, 0.0])
        np.testing.assert_allclose(hs.effective_parameter(np.full(4, 0.25), thetas),
                                   [0.5, 0.5])

    def test_effective_parameter_in_bounding_box(self):
        data = toy_dataset(12, seed=11)
        family = lambda x, thetas: np.multiply.outer(x, thetas[:, 0])
        thetas = np.random.default_rng(12).uniform(0.2, 0.8, size=(5, 2))
        mix = fit_mix(data, family, thetas, lambda_r=1.0)
        eff = hs.effective_parameter(mix.weights, thetas)
        assert np.all(eff >= thetas.min(axis=0) - 1e-9)
        assert np.all(eff <= thetas.max(axis=0) + 1e-9)

    def test_vertex_weight_prediction(self):
        thetas = np.array([[0.2, 0.0], [0.9, 0.0]])
        model = hs.HybridModel(features=lambda x: np.multiply.outer(x, thetas[:, 0]),
                               weights=np.array([0.0, 1.0]),
                               anchors=np.array([[0.5]]), coeffs=np.array([0.3]),
                               kernel=KX)
        x = 0.5
        expected = 0.9 * x + 0.3 * 1.0  # family at theta_2 plus residual at anchor
        assert model.predict(x) == pytest.approx(expected, abs=1e-12)


NON_FINITE = (np.nan, np.inf, -np.inf)


class TestRegularizationWeights:
    """Every weight must be finite and positive; a NaN weight passes a plain
    `lam <= 0` test."""

    def setup_method(self):
        data = toy_dataset(10, seed=16)
        self.fmap = lambda x: np.stack([np.asarray(x), np.asarray(x) ** 2], axis=-1)
        self.design = hs.design(data, self.fmap, KX)

    @pytest.mark.parametrize("lam", NON_FINITE + (0.0,))
    def test_reference_krr(self, lam):
        # anywhere in the grid, also after a good weight
        for lams in ([lam], [1.0, lam]):
            with pytest.raises(DomainError):
                hs.fit_reference_krr(self.design, lams)

    @pytest.mark.parametrize("lam", NON_FINITE + (0.0,))
    @pytest.mark.parametrize("name", ["lambda_theta", "lambda_r"])
    def test_subspace(self, name, lam):
        # lambda_r anywhere in the grid, also after a good weight
        calls = ([(lam, [1.0])] if name == "lambda_theta"
                 else [(1e-6, [lam]), (1e-6, [1.0, lam])])
        for lambda_theta, lams in calls:
            with pytest.raises(DomainError):
                hs.fit_subspace(self.design, lambda_theta, lams)

    @pytest.mark.parametrize("name, lam", [("lambda_r", lam) for lam in NON_FINITE + (0.0,)])
    def test_mixture(self, name, lam):
        # the grid holds lambda_r (`name` keeps the ids parallel to test_subspace's)
        for lams in ([lam], [1.0, lam]):
            with pytest.raises(DomainError):
                hs.fit_mixture(self.design, lams)

    def test_mixture_fit_needs_a_training_design(self):
        with pytest.raises(DomainError):
            hs.fit_mixture(self.design.at(toy_dataset(10, seed=17)), [1.0])

    @pytest.mark.parametrize("n_val", [15, 10])
    def test_subspace_fit_needs_a_training_design(self, n_val):
        # a validation design of another size made numpy raise, and one of
        # the same size failed the factorization
        val = self.design.at(toy_dataset(n_val, seed=17))
        with pytest.raises(DomainError, match="subspace fits need a training design"):
            hs.fit_subspace(val, 1e-6, [1.0])

    def test_reference_fit_needs_a_training_design(self):
        val = self.design.at(toy_dataset(10, seed=17))
        assert val.factor is None
        with pytest.raises(DomainError):
            hs.fit_reference_krr(val, [1.0])


class TestRmse:
    def test_perfect_model(self):
        data = toy_dataset()
        ref = lambda x: np.sin(2 * np.pi * np.asarray(x))
        design = hs.design(data, ref, KX)
        assert hs.rmse(hs.fit_reference_krr(design, [1.0]), design) == pytest.approx(
            [0.0], abs=1e-10)

    def test_constant_zero_model(self):
        data = Dataset(inputs=np.array([0.2, 0.8]), targets=np.array([1.0, -1.0]))
        design = hs.design(data, lambda x: 0.0 * np.asarray(x), KX)
        model = design.model(np.ones(1), np.zeros(2))
        assert hs.rmse([model], design) == pytest.approx([1.0], abs=1e-12)

    def test_matches_recomputation_from_predict(self):
        # rmse reads the design's blocks, every model in one product; predict
        # evaluates each model afresh
        train, val = toy_dataset(20, seed=13), toy_dataset(20, seed=14)
        fmap = lambda x: np.stack([np.asarray(x), np.asarray(x) ** 2], axis=-1)
        design = hs.design(train, fmap, KX)
        models = hs.fit_subspace(design, 1e-3, (1e-3, 0.1, 10.0))
        for data, d in ((train, design), (val, design.at(val))):
            scores = hs.rmse(models, d)
            assert len(scores) == len(models) and all(type(s) is float for s in scores)
            for model, score in zip(models, scores):
                pred = model.predict(data.inputs.ravel())
                manual = np.sqrt(np.mean((pred - data.targets) ** 2))
                assert score == pytest.approx(manual, abs=1e-14)

    def test_rejects_model_from_another_design(self):
        data = toy_dataset(12, seed=15)
        design = hs.design(data, lambda x: np.asarray(x), KX)
        other = design.with_features(lambda x: 2.0 * np.asarray(x))
        models = hs.fit_reference_krr(design, [1.0])
        with pytest.raises(DomainError):
            hs.rmse(models, other)

    def test_rejects_an_empty_list(self):
        design = hs.design(toy_dataset(12, seed=15), lambda x: np.asarray(x), KX)
        with pytest.raises(DomainError):
            hs.rmse([], design)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_a_list_with_one_model_of_another_design(self, position):
        data = toy_dataset(12, seed=15)
        design = hs.design(data, lambda x: np.asarray(x), KX)
        # the same features and kernel, anchored at another dataset
        stranger = hs.design(toy_dataset(12, seed=16), design.features, KX)
        models = hs.fit_reference_krr(design, [0.1, 1.0])
        models.insert(position, hs.fit_reference_krr(stranger, [1.0])[0])
        with pytest.raises(DomainError):
            hs.rmse(models, design)

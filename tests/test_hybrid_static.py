"""Static hybrid fits: reference KRR, subspace joint fit, simplex mixture."""

import json

import numpy as np
import pytest

from hybridkernel import hybrid_static as hs
from hybridkernel import simplex_qp
from hybridkernel.errors import DimensionMismatch, DomainError
from hybridkernel.hybrid_static import Dataset
from hybridkernel.kernels import KernelSpec, gram
import oracles

KX = KernelSpec(gamma=100.0)
KTHETA = KernelSpec(gamma=10.0)


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
    return hs.fit_reference_krr(hs.design(data, reference, KX), lam)


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
        small = hs.fit_reference_krr(train, 1e-3)
        large = hs.fit_reference_krr(train, 1e2)
        assert hs.rmse(small, val) < hs.rmse(large, val)

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
        design = hs.design(data, lambda x: np.stack([x, x ** 2], axis=-1), KX, joint=True)
        model = hs.fit_subspace(design, lambda_theta=1e-6, lambda_r=1.0)
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-10)
        np.testing.assert_allclose(model.coeffs, 0.0, atol=1e-10)

    def test_ridge_limit_recovers_sample_mean(self):
        # constant feature, residual killed by huge lambda_r, tiny lambda_theta:
        # theta tends to the sample mean of the targets
        x = np.array([0.1, 0.5, 0.9])
        y = np.array([1.0, 2.0, 6.0])
        data = Dataset(inputs=x, targets=y)
        const = lambda x: np.ones(np.shape(np.asarray(x)) + (1,))
        model = hs.fit_subspace(hs.design(data, const, KX, joint=True),
                                lambda_theta=1e-10, lambda_r=1e10)
        assert model.weights[0] == pytest.approx(y.mean(), rel=1e-4)

    def test_joint_fit_dominance(self):
        # the joint optimum beats any fixed theta evaluated in the same objective
        data = toy_dataset(20, seed=2)
        fmap = lambda x: np.stack([np.asarray(x), np.asarray(x) ** 2], axis=-1)
        lt, lr = 1e-4, 0.1
        design = hs.design(data, fmap, KX, joint=True)
        model = hs.fit_subspace(design, lambda_theta=lt, lambda_r=lr)
        penalty = lt * np.eye(2)
        opt = oracles.objective(design, model.weights, model.coeffs, penalty, lr)
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta_hat = rng.standard_normal(2)
            # best c for this fixed theta comes from a reference KRR around it
            fixed = fit_ref(data, lambda x, t=theta_hat: fmap(x) @ t, lr)
            val = oracles.objective(design, theta_hat, fixed.coeffs, penalty, lr)
            assert opt <= val + 1e-8

    def test_objective_matches_solution(self):
        data = toy_dataset(15, seed=4)
        fmap = lambda x: np.stack([np.asarray(x), 1 - np.asarray(x)], axis=-1)
        design = hs.design(data, fmap, KX, joint=True)
        model = hs.fit_subspace(design, lambda_theta=1e-3, lambda_r=1.0)
        # perturbing the solution can only increase the objective
        penalty = 1e-3 * np.eye(2)
        base = oracles.objective(design, model.weights, model.coeffs, penalty, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            dt = 1e-3 * rng.standard_normal(2)
            dc = 1e-3 * rng.standard_normal(data.size)
            assert base <= oracles.objective(design, model.weights + dt, model.coeffs + dc,
                                             penalty, 1.0) + 1e-10


def fit_mix(data, family, thetas, lambda_omega, lambda_r):
    design = hs.design(data, hs.family_features(family, thetas), KX, joint=True)
    return hs.fit_mixture(design, gram(KTHETA, thetas), lambda_omega, lambda_r)


class TestMixture:
    def test_theta_independent_family_reduces_to_reference_krr(self):
        data = toy_dataset(15, seed=6, fn=lambda t: np.sin(t) + 0.3)
        hbar = lambda x: 0.2 + 0.5 * np.asarray(x)
        family = lambda x, theta: hbar(x)
        thetas = np.random.default_rng(7).uniform(0, 1, size=(8, 2))
        mix = fit_mix(data, family, thetas, lambda_omega=0.0, lambda_r=0.5)
        ref = fit_ref(data, hbar, 0.5)
        grid = np.linspace(0, 1, 50)
        np.testing.assert_allclose(mix.predict(grid), ref.predict(grid), atol=1e-6)

    def test_single_parameter_sample(self):
        data = toy_dataset(12, seed=8)
        family = lambda x, theta: float(theta[0]) * np.asarray(x)
        mix = fit_mix(data, family, np.array([[0.4, 0.0]]),
                         lambda_omega=0.0, lambda_r=1.0)
        np.testing.assert_array_equal(mix.weights, [1.0])
        ref = fit_ref(data, lambda x: 0.4 * np.asarray(x), 1.0)
        grid = np.linspace(0, 1, 50)
        np.testing.assert_allclose(mix.predict(grid), ref.predict(grid), atol=1e-8)

    def test_weights_feasible_and_objective_matches(self):
        data = toy_dataset(15, seed=9)
        family = lambda x, theta: float(theta[0]) * np.asarray(x) \
            + float(theta[1]) * np.asarray(x) ** 2
        thetas = np.random.default_rng(10).uniform(0, 1, size=(6, 2))
        design = hs.design(data, hs.family_features(family, thetas), KX, joint=True)
        theta_gram = gram(KTHETA, thetas)
        mix = hs.fit_mixture(design, theta_gram, lambda_omega=0.1, lambda_r=0.5)
        assert np.all(mix.weights >= -1e-12)
        assert abs(mix.weights.sum() - 1.0) <= 1e-10
        # the QP that fit_mixture solves, built by hand from the normal blocks
        Q = design.DtD + np.block([[0.1 * theta_gram, np.zeros((6, data.size))],
                                   [np.zeros((data.size, 6)), 0.5 * design.K]])
        qp = simplex_qp.solve(simplex_qp.SimplexQpProblem(
            Q=Q, q_lin=-2.0 * design.Dty, m_simplex=6, n_free=data.size))
        np.testing.assert_array_equal(qp.b, mix.weights)
        direct = oracles.objective(design, mix.weights, mix.coeffs, 0.1 * theta_gram, 0.5)
        assert qp.objective + data.targets @ data.targets == pytest.approx(direct, abs=1e-8)

    def test_effective_parameter(self):
        thetas = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(
            hs.effective_parameter(np.array([0.0, 1.0, 0.0, 0.0]), thetas), [1.0, 0.0])
        np.testing.assert_allclose(hs.effective_parameter(np.full(4, 0.25), thetas),
                                   [0.5, 0.5])

    def test_effective_parameter_in_bounding_box(self):
        data = toy_dataset(12, seed=11)
        family = lambda x, theta: float(theta[0]) * np.asarray(x)
        thetas = np.random.default_rng(12).uniform(0.2, 0.8, size=(5, 2))
        mix = fit_mix(data, family, thetas, lambda_omega=0.0, lambda_r=1.0)
        eff = hs.effective_parameter(mix.weights, thetas)
        assert np.all(eff >= thetas.min(axis=0) - 1e-9)
        assert np.all(eff <= thetas.max(axis=0) + 1e-9)

    def test_vertex_weight_prediction(self):
        thetas = np.array([[0.2, 0.0], [0.9, 0.0]])
        family = lambda x, theta: float(theta[0]) * np.asarray(x)
        model = hs.HybridModel(features=hs.family_features(family, thetas),
                               weights=np.array([0.0, 1.0]),
                               anchors=np.array([[0.5]]), coeffs=np.array([0.3]),
                               kernel=KX)
        x = 0.5
        expected = 0.9 * x + 0.3 * 1.0  # family at theta_2 plus residual at anchor
        assert model.predict(x) == pytest.approx(expected, abs=1e-12)


class TestRmse:
    def test_perfect_model(self):
        data = toy_dataset()
        ref = lambda x: np.sin(2 * np.pi * np.asarray(x))
        design = hs.design(data, ref, KX)
        assert hs.rmse(hs.fit_reference_krr(design, 1.0), design) == pytest.approx(
            0.0, abs=1e-10)

    def test_constant_zero_model(self):
        data = Dataset(inputs=np.array([0.2, 0.8]), targets=np.array([1.0, -1.0]))
        design = hs.design(data, lambda x: 0.0 * np.asarray(x), KX)
        model = design.model(np.ones(1), np.zeros(2))
        assert hs.rmse(model, design) == pytest.approx(1.0, abs=1e-12)

    def test_matches_recomputation_from_predict(self):
        # rmse reads the design's blocks; predict evaluates the model afresh
        train, val = toy_dataset(20, seed=13), toy_dataset(20, seed=14)
        fmap = lambda x: np.stack([np.asarray(x), np.asarray(x) ** 2], axis=-1)
        design = hs.design(train, fmap, KX, joint=True)
        model = hs.fit_subspace(design, lambda_theta=1e-3, lambda_r=0.1)
        for data, d in ((train, design), (val, design.at(val))):
            pred = model.predict(data.inputs.ravel())
            manual = np.sqrt(np.mean((pred - data.targets) ** 2))
            assert hs.rmse(model, d) == pytest.approx(manual, abs=1e-14)

    def test_rejects_model_from_another_design(self):
        data = toy_dataset(12, seed=15)
        design = hs.design(data, lambda x: np.asarray(x), KX)
        other = design.with_features(lambda x: 2.0 * np.asarray(x))
        model = hs.fit_reference_krr(design, 1.0)
        with pytest.raises(DomainError):
            hs.rmse(model, other)

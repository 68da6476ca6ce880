"""Monomial lifting, gEDMD, hybrid generator fit, closures, bilinear assembly."""

import dataclasses
import json

import numpy as np
import pytest

from hybridkernel import koopman as kp
from hybridkernel.errors import DimensionMismatch, DomainError
import oracles
from oracles import vec

BASIS3 = kp.MonomialBasis(q=3)


class TestMonomialBasis:
    def test_zero_state_maps_to_zero(self):
        np.testing.assert_array_equal(BASIS3.eval(np.zeros(2)), np.zeros(6))

    def test_ones(self):
        np.testing.assert_array_equal(BASIS3.eval(np.array([1.0, 1.0])), np.ones(6))

    def test_hand_value(self):
        np.testing.assert_allclose(BASIS3.eval(np.array([0.5, 2.0])),
                                   [0.5, 0.25, 0.125, 2.0, 1.0, 0.5], atol=1e-15)

    def test_dimension(self):
        for q in (1, 2, 3, 5):
            assert kp.MonomialBasis(q=q).N == 2 * q

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            kp.MonomialBasis(q=0)

    def test_jacobian_simple_rows(self):
        J = BASIS3.jacobian(np.array([0.7, -0.3]))
        np.testing.assert_allclose(J[0], [1.0, 0.0], atol=1e-15)     # psi = x1
        np.testing.assert_allclose(J[4], [-0.3, 0.7], atol=1e-15)    # psi = x1 x2

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(-0.25, 0.25, size=2)
            J = BASIS3.jacobian(x)
            fd = np.column_stack([
                (BASIS3.eval(x + h * e) - BASIS3.eval(x - h * e)) / (2 * h)
                for e in np.eye(2)])
            assert np.max(np.abs(J - fd)) < 1e-6


    @pytest.mark.parametrize("q", range(1, 6))
    def test_sq_norm_gradient_is_twice_jacobian_transpose_psi(self, q):
        basis = kp.MonomialBasis(q=q)
        for x in np.random.default_rng(q).uniform(-3.0, 3.0, size=(200, 2)):
            want = 2.0 * basis.jacobian(x).T @ basis.eval(x)
            got = [kp.polyval(d, *x.tolist()) for d in basis.sq_norm_gradient_coeffs]
            assert all(type(g) is float for g in got)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-300)


class TestCstrFields:
    def test_drift_steady_state_at_origin(self):
        np.testing.assert_allclose(kp.cstr_f0_true(np.zeros(2)), [0.0, 0.0],
                                   atol=1e-15)
        assert kp.cstr_fields(0.0, 0.0)[:2] == (0.0, 0.0)

    def test_input_channel_at_origin(self):
        np.testing.assert_allclose(kp.cstr_f1(np.zeros(2)), [0.75, -0.25],
                                   atol=1e-15)
        assert kp.cstr_fields(0.0, 0.0)[2:] == (0.75, -0.25)

    def test_family_at_zero_parameter(self):
        x = np.array([0.2, -0.1])
        np.testing.assert_allclose(kp.cstr_f0_family(x, [[0.0, 0.0]]),
                                   [[-x[0] / 4, -3 * x[1] / 4]], atol=1e-15)

    def test_family_hand_value(self):
        x = np.array([0.1, 0.2])
        kin = 0.5 * 0.1 + 1.0 * 0.01
        np.testing.assert_allclose(kp.cstr_f0_family(x, [[0.5, 1.0], [0.0, 0.0]]),
                                   [[-0.025 - kin, -0.15 + kin], [-0.025, -0.15]], atol=1e-14)

    def test_drift_rejects_singular_point(self):
        with pytest.raises(DomainError):
            kp.cstr_f0_true(np.array([-1.5, 0.0]))
        # f1 comes from the same formula, so it is undefined there too
        with pytest.raises(DomainError):
            kp.cstr_f1(np.array([-1.5, 0.0]))
        with pytest.raises(DomainError):
            kp.cstr_fields(-1.5, 0.0)


class TestGedmd:
    def test_exact_linear_drift(self):
        a = -0.7
        sample = kp.make_drift_sample(50, seed=1, field=lambda x: a * np.asarray(x))
        A = oracles.gedmd(sample, kp.MonomialBasis(q=1))
        np.testing.assert_allclose(A, a * np.eye(2), atol=1e-12)

    def test_chain_rule_on_monomials(self):
        # xdot1 = a x1, xdot2 = 0: d(x1)/dt = a x1, d(x1^2)/dt = 2a x1^2
        a = 0.4
        field = lambda x: np.stack([a * np.asarray(x)[..., 0],
                                    0.0 * np.asarray(x)[..., 1]], axis=-1)
        sample = kp.make_drift_sample(60, seed=2, field=field)
        A = oracles.gedmd(sample, kp.MonomialBasis(q=2))
        assert A[0, 0] == pytest.approx(a, abs=1e-10)
        assert A[1, 1] == pytest.approx(2 * a, abs=1e-10)
        # off-diagonal entries of the x1-block vanish
        assert abs(A[0, 1]) < 1e-10 and abs(A[1, 0]) < 1e-10

    def test_residual_positive_on_true_cstr(self):
        sample = kp.make_drift_sample(200, seed=0)
        A = oracles.gedmd(sample, BASIS3)
        assert oracles.gedmd_residual_rms(sample, BASIS3, A) > 1e-6

    def test_requires_enough_samples(self):
        sample = kp.make_drift_sample(4, seed=3)
        with pytest.raises(DimensionMismatch):
            oracles.gedmd(sample, BASIS3)


class TestHybridGenerator:
    def setup_method(self):
        self.thetas = np.random.default_rng(1000).uniform(0, 1, size=(10, 2))
        self.family = kp.cstr_f0_family

    def design(self, sample, thetas=None):
        thetas = self.thetas if thetas is None else thetas
        return kp.generator_design(sample, self.family, thetas, BASIS3)

    def test_single_parameter_reduces_to_ridge(self):
        sample = kp.make_drift_sample(80, seed=4)
        theta = self.thetas[:1]
        lam_R = 0.5
        b, R, _ = kp.fit_hybrid_generator(self.design(sample, theta),
                                          lambda_b=1e-8, lambda_R=lam_R)
        np.testing.assert_array_equal(b, [1.0])
        # closed-form ridge for R: residual targets around f0(.|theta_1)
        Psi = BASIS3.eval(sample.states)
        targets = oracles.lifted_velocities(sample, BASIS3) - np.stack(
            [BASIS3.jacobian(x) @ self.family(x, theta)[0] for x in sample.states])
        R_ridge = np.linalg.solve(Psi.T @ Psi + lam_R * np.eye(6),
                                  Psi.T @ targets).T
        np.testing.assert_allclose(R, R_ridge, atol=1e-6)

    def test_objective_equivalence(self):
        sample = kp.make_drift_sample(40, seed=5)
        lam_b, lam_R = 1e-4, 0.3
        design = self.design(sample)
        stacked = oracles.stacked_generator_problem(design, lam_b, lam_R)
        const = float(design.psidot.ravel() @ design.psidot.ravel())
        S, s, X = kp.hybrid_generator_problem(design, lam_b, lam_R)
        rng = np.random.default_rng(6)
        gaps = []
        for _ in range(20):
            v = rng.exponential(size=10)
            b = v / v.sum()
            R = rng.standard_normal((6, 6))
            direct = oracles.hybrid_generator_objective(design, lam_b, lam_R, b, R)
            quad = stacked.objective(b, vec(R)) + const
            assert quad == pytest.approx(direct, rel=1e-8)
            # the reduced objective is the primal one at the best R for b,
            # less a constant that does not depend on b
            best = (np.append(-b, 1.0) @ X).T
            at_best = oracles.hybrid_generator_objective(design, lam_b, lam_R, b, best)
            assert at_best <= direct
            gaps.append(at_best - (b @ S @ b + s @ b))
        np.testing.assert_allclose(gaps, gaps[0], rtol=1e-8)

    def test_planted_truth_recovered(self):
        # the true drift is a sampled family member at a hull vertex
        jbar = int(np.argmax(self.thetas.sum(axis=1)))
        theta_bar = self.thetas[jbar]
        sample = kp.make_drift_sample(120, seed=7,
                                      field=lambda x: self.family(x, [theta_bar])[:, 0])
        design = self.design(sample)
        b, R, _ = kp.fit_hybrid_generator(design, lambda_b=1e-8, lambda_R=1e2)
        assert b[jbar] >= 0.99
        assert np.linalg.norm(R, "fro") < 1e-6
        assert kp.hybrid_prediction_rmse(design, b, R) < 1e-8

    def test_rejects_bad_regularization(self):
        design = self.design(kp.make_drift_sample(20, seed=8))
        with pytest.raises(DomainError):
            kp.fit_hybrid_generator(design, lambda_b=-1.0, lambda_R=1.0)
        with pytest.raises(DomainError):
            kp.fit_hybrid_generator(design, lambda_b=0.0, lambda_R=0.0)

    @pytest.mark.parametrize("name, lam", [("lambda_R", lam)
                                           for lam in (np.nan, np.inf, -np.inf, 0.0)]
                             + [("lambda_b", lam) for lam in (np.nan, np.inf, -np.inf)])
    def test_rejects_non_finite_regularization(self, name, lam):
        # NaN passes a plain `lam <= 0` test
        design = self.design(kp.make_drift_sample(20, seed=8))
        weights = {"lambda_b": 0.0, "lambda_R": 1.0, name: lam}
        with pytest.raises(DomainError):
            kp.hybrid_generator_problem(design, **weights)


class TestClosures:
    def test_input_channel_affine_closure_is_exact(self):
        beta, gamma = kp.closure_fit(kp.cstr_f1, BASIS3, affine=True)
        assert oracles.closure_residual(kp.cstr_f1, BASIS3, beta, gamma) < 1e-10

    def test_linear_family_member_has_exact_linear_closure(self):
        # theta2 = 0 keeps the lifted dynamics inside the degree-q span
        field = lambda x: kp.cstr_f0_family(x, [[0.7, 0.0]])[..., 0, :]
        beta, gamma = kp.closure_fit(field, BASIS3)
        np.testing.assert_array_equal(beta, np.zeros(6))
        assert oracles.closure_residual(field, BASIS3, beta, gamma) < 1e-10

    def test_zero_field(self):
        zero = lambda x: np.zeros(2)
        beta, gamma = kp.closure_fit(zero, BASIS3, affine=True)
        np.testing.assert_allclose(beta, 0.0, atol=1e-12)
        np.testing.assert_allclose(gamma, 0.0, atol=1e-12)

    def test_rejects_tiny_grid(self):
        with pytest.raises(DimensionMismatch):
            kp.closure_fit(kp.cstr_f1, BASIS3, grid=np.zeros((3, 2)), affine=True)


class TestBilinearAssembly:
    def make_model(self, b):
        rng = np.random.default_rng(9)
        As = rng.standard_normal((3, 6, 6))
        beta = rng.standard_normal(6)
        gamma = rng.standard_normal((6, 6))
        model = kp.KoopmanHybridModel(BASIS3, b, np.zeros((6, 6)), As, beta, gamma)
        return model, As, beta, gamma

    def test_vertex_weight_drift(self):
        model, As, _, _ = self.make_model(np.array([0.0, 1.0, 0.0]))
        z = np.arange(1.0, 7.0)
        np.testing.assert_allclose(oracles.lifted_rhs(model, z, 0.0), As[1] @ z,
                                   atol=1e-12)

    def test_zero_state_input_response(self):
        model, _, beta, _ = self.make_model(np.array([0.3, 0.3, 0.4]))
        np.testing.assert_allclose(oracles.lifted_rhs(model, np.zeros(6), 2.0),
                                   2.0 * beta, atol=1e-12)

    def test_consistency_with_lifted_fields(self):
        # the lifted velocity at psi(x) deviates from
        # Dpsi(x)(sum_j b_j f0(x|theta_j) + u f1(x)) + R psi(x) by no more than
        # the summed closure residuals
        thetas = np.random.default_rng(10).uniform(0, 1, size=(4, 2))
        b = np.full(4, 0.25)
        rng = np.random.default_rng(11)
        R = 0.1 * rng.standard_normal((6, 6))
        As, residuals = [], []
        for th in thetas:
            field = lambda x, th=th: kp.cstr_f0_family(x, [th])[..., 0, :]
            _, A = kp.closure_fit(field, BASIS3)
            As.append(A)
            residuals.append(oracles.closure_residual(field, BASIS3, np.zeros(6), A))
        beta1, gamma1 = kp.closure_fit(kp.cstr_f1, BASIS3, affine=True)
        residuals.append(oracles.closure_residual(kp.cstr_f1, BASIS3, beta1, gamma1))
        model = kp.KoopmanHybridModel(BASIS3, b, R, np.stack(As), beta1, gamma1,
                                      theta_samples=thetas)
        # grid residuals are maxima over a dense lattice; allow a small margin
        # for the off-lattice test states
        bound = 1.1 * sum(residuals) + 1e-12
        u = 0.7
        for x in kp.sample_states(25, seed=12):
            J = BASIS3.jacobian(x)
            mix = b @ kp.cstr_f0_family(x, thetas)
            direct = J @ (mix + u * kp.cstr_f1(x)) + R @ BASIS3.eval(x)
            dev = np.max(np.abs(oracles.lifted_rhs(model, BASIS3.eval(x), u) - direct))
            assert dev <= bound

    def test_degrees_of_freedom_count(self):
        # q = 3, m = 25: N^2 residual entries + m weights = 4q^2 + m = 61
        q, m = 3, 25
        basis = kp.MonomialBasis(q=q)
        assert basis.N ** 2 + m == 4 * q ** 2 + m == 61

    def test_serialization_contains_all_blocks(self):
        model, _, _, _ = self.make_model(np.array([0.2, 0.3, 0.5]))
        doc = json.loads(model.to_json(lambda_b=1e-8, lambda_R=1.0, seeds={"data_seed": 0}))
        for key in ("q", "weights", "residual", "closure_A", "input_beta",
                    "input_gamma", "lambda_b", "lambda_R", "seeds"):
            assert key in doc

    @pytest.mark.parametrize("with_thetas", [False, True])
    def test_json_round_trip_is_bit_exact(self, with_thetas):
        model, _, _, _ = self.make_model(np.array([0.2, 0.3, 0.5]))
        rng = np.random.default_rng(14)
        model = dataclasses.replace(
            model, residual=rng.standard_normal((6, 6)),
            theta_samples=rng.uniform(0.0, 1.0, (3, 2)) if with_thetas else None)
        loaded = kp.KoopmanHybridModel.from_json(
            model.to_json(lambda_R=1.0, seeds={"data_seed": 0}))
        assert loaded.basis == model.basis
        for name in ("weights", "residual", "closure_A", "input_beta", "input_gamma",
                     "theta_samples", "drift_matrix"):
            new, old = getattr(loaded, name), getattr(model, name)
            if old is None:
                assert new is None
            else:
                assert new.shape == old.shape and new.tobytes() == old.tobytes(), name

    @pytest.mark.parametrize("name, shape", [("input_gamma", (6, 5)), ("input_gamma", (6,)),
                                             ("closure_A", (2, 6, 6)),
                                             ("closure_A", (3, 6, 4))])
    def test_from_json_rejects_wrong_shapes(self, name, shape):
        model, _, _, _ = self.make_model(np.array([0.2, 0.3, 0.5]))
        doc = json.loads(model.to_json())
        doc[name] = np.ones(shape).tolist()
        with pytest.raises(DimensionMismatch):
            kp.KoopmanHybridModel.from_json(json.dumps(doc))

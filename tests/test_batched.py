"""The batched Koopman and control paths against the per-point oracles, and
the closed loop on Python floats against the loop on numpy arrays.

Every batched result must equal the per-point oracle bit for bit, except
``hybrid_generator_objective``: it sums the squared residuals with np.sum, not
one point at a time, and matches the oracle to 1e-12 relative. The batched
``hybrid_generator_objective`` and ``closure_residual`` live in ``oracles``
too, since only tests call them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from hybridkernel import control, experiments, koopman as kp
from hybridkernel.errors import DomainError, HybridKernelError, NonFinite

SETTINGS = settings(max_examples=40, deadline=None)

coords = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=64)
orders = st.integers(min_value=1, max_value=5)
box_coords = st.floats(min_value=-kp.STATE_BOX, max_value=kp.STATE_BOX, width=64)


def state_arrays(min_n=1, max_n=40):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=coords))


def unit_thetas(max_m=6):
    return st.integers(min_value=1, max_value=max_m).flatmap(
        lambda m: arrays(np.float64, (m, 2),
                         elements=st.floats(min_value=0.0, max_value=1.0, width=64)))


def assert_bit_equal(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


@SETTINGS
@given(orders, state_arrays())
def test_eval_and_jacobian_match_single_states(q, X):
    basis = kp.MonomialBasis(q=q)
    assert_bit_equal(basis.eval(X), np.stack([oracles.psi(basis, x) for x in X]))
    assert_bit_equal(basis.jacobian(X), np.stack([oracles.jacobian(basis, x) for x in X]))
    assert_bit_equal(basis.eval(X[0]), oracles.psi(basis, X[0]))
    assert_bit_equal(basis.jacobian(X[0]), oracles.jacobian(basis, X[0]))
    points = list(map(tuple, X.tolist()))
    assert_bit_equal(np.array([basis.eval_at(x) for x in points]), basis.eval(X))
    assert_bit_equal(np.array([basis.jacobian_at(x) for x in points]), basis.jacobian(X))


@SETTINGS
@given(orders, state_arrays())
def test_clf_value_of_a_batch_matches_single_states(q, X):
    basis = kp.MonomialBasis(q=q)
    values = control.clf_value(basis, X)
    assert_bit_equal(values, np.array([oracles.clf_value(basis, x) for x in X]))
    assert control.clf_value(basis, X[0]) == values[0]
    assert isinstance(control.clf_value(basis, X[0]), float)


@SETTINGS
@given(state_arrays(), st.floats(min_value=-1.0, max_value=1.0))
def test_fields_match_single_states(X, u):
    for field in (kp.cstr_f0_true, kp.cstr_f1, lambda x: kp.cstr_f0_family(x, (0.3, 0.8))):
        assert_bit_equal(field(X), np.stack([field(x) for x in X]))
    # the float fields and plant that the closed loop runs on
    points = list(map(tuple, X.tolist()))
    for field, at in ((kp.cstr_f0_true, kp.cstr_f0_true_at), (kp.cstr_f1, kp.cstr_f1_at)):
        assert_bit_equal(np.array([at(x) for x in points]), field(X))
    assert_bit_equal(np.array([kp.cstr_plant(x, u) for x in points]), oracles.plant(X, u))


@SETTINGS
@given(orders, state_arrays(min_n=12, max_n=60), unit_thetas(),
       st.floats(min_value=1e-6, max_value=10.0))
def test_hybrid_generator_matches_per_point_assembly(q, X, thetas, lam):
    basis = kp.MonomialBasis(q=q)
    sample = kp.DriftSample(states=X, drift_velocities=kp.cstr_f1(X))
    family = kp.cstr_f0_family
    design = kp.generator_design(sample, family, thetas, basis)
    problem, const = kp.hybrid_generator_problem(design, 1e-8, lam)
    Q, q_lin, const_old = oracles.hybrid_generator_problem(sample, family, thetas, basis,
                                                           1e-8, lam)
    assert_bit_equal(problem.Q, Q)
    assert_bit_equal(problem.q_lin, q_lin)
    assert const == const_old
    assert_bit_equal(design.psidot, oracles.lifted_velocities(sample, basis))
    assert_bit_equal(design.Psi, oracles.psi(basis, X))
    assert_bit_equal(design.G, np.stack([[oracles.jacobian(basis, x) @ family(x, th)
                                          for th in thetas] for x in X]))

    rng = np.random.default_rng(q)
    b = rng.dirichlet(np.ones(len(thetas)))
    R = rng.standard_normal((basis.N, basis.N))
    assert (kp.hybrid_prediction_rmse(design, b, R)
            == oracles.hybrid_prediction_rmse(sample, family, thetas, basis, b, R))
    new = oracles.hybrid_generator_objective(design, 1e-8, lam, b, R)
    old = oracles.hybrid_generator_objective_per_point(sample, family, thetas, basis, 1e-8,
                                                       lam, b, R)
    assert abs(new - old) <= 1e-12 * abs(old)


@SETTINGS
@given(orders, state_arrays(),
       arrays(np.float64, (2,), elements=st.floats(min_value=0.0, max_value=1.0)),
       st.booleans())
def test_closures_match_per_point_fit(q, X, theta, affine):
    basis = kp.MonomialBasis(q=q)
    # a 7 x 7 lattice keeps the regression well posed for any X and q <= 5
    grid = np.vstack([X, kp.default_closure_grid(points_per_axis=7)])
    fields = (lambda x: kp.cstr_f0_family(x, theta), kp.cstr_f1,
              lambda x: np.array([0.25, -0.5]))  # a constant field returns one (2,)
    for field in fields:
        beta, gamma = kp.closure_fit(field, basis, grid=grid, affine=affine)
        beta_old, gamma_old = oracles.closure_fit(field, basis, grid=grid, affine=affine)
        assert_bit_equal(beta, beta_old)
        assert_bit_equal(gamma, gamma_old)
        assert (oracles.closure_residual(field, basis, beta, gamma, grid=grid)
                == oracles.closure_residual_per_point(field, basis, beta, gamma, grid=grid))


def test_default_closures_match_per_point_fit():
    basis = kp.MonomialBasis(q=3)
    for field, affine in ((kp.cstr_f1, True), (lambda x: kp.cstr_f0_family(x, (0.6, 0.2)),
                                               False)):
        for new, old in zip(kp.closure_fit(field, basis, affine=affine),
                            oracles.closure_fit(field, basis, affine=affine)):
            assert_bit_equal(new, old)


@pytest.mark.parametrize("q", range(1, 6))
def test_point_eval_and_jacobian_match_batched_rows_on_random_states(q):
    # libm's pow and numpy's SIMD pow differ in the last bit on about 3 % of
    # cubes, so 2 000 random states meet dozens of them; Hypothesis favours
    # simple floats, on which the two agree
    basis = kp.MonomialBasis(q=q)
    X = np.random.default_rng(q).uniform(-1.0, 1.0, size=(2000, 2))
    psi, J = basis.eval(X), basis.jacobian(X)
    assert_bit_equal(np.array([basis.eval_at(x) for x in map(tuple, X.tolist())]), psi)
    assert_bit_equal(np.array([basis.jacobian_at(x) for x in map(tuple, X.tolist())]), J)


@pytest.fixture(scope="module")
def cstr_controllers():
    """(new, oracle) controller pairs: the truth controller and a fitted model's."""
    basis = kp.MonomialBasis(q=3)
    rows = experiments.run_koopman(n=60, seed=0, m=5, lambda_grid=(1e-4,))
    (model,) = experiments.koopman_models(rows)
    return {
        "truth": (control.make_truth_controller(basis, kp.cstr_f0_true_at, kp.cstr_f1_at),
                  oracles.truth_controller(basis)),
        "model": (control.make_model_controller(model), oracles.model_controller(model)),
    }


@pytest.mark.parametrize("kind", ["truth", "model"])
@settings(max_examples=6, deadline=None)
@given(st.tuples(box_coords, box_coords), st.integers(min_value=200, max_value=260))
def test_float_loop_matches_array_loop(cstr_controllers, kind, x0, steps):
    new_ctrl, old_ctrl = cstr_controllers[kind]
    dt = 0.01
    traj = control.simulate(kp.cstr_plant, new_ctrl, x0, dt, steps * dt)
    # the same callables on numpy states, then the array plant and controllers
    for plant, ctrl in ((kp.cstr_plant, new_ctrl), (oracles.plant, old_ctrl)):
        times, states, controls = oracles.simulate(plant, ctrl, x0, dt, steps * dt)
        assert_bit_equal(traj.times, times)
        assert_bit_equal(traj.states, states)
        assert_bit_equal(traj.controls, controls)


@pytest.mark.parametrize("kind", ["truth", "model"])
@pytest.mark.parametrize("x0, error", [((1e200, 0.0), NonFinite), ((-1.5, 0.0), DomainError)])
def test_float_loop_raises_as_array_loop(cstr_controllers, kind, x0, error):
    # Python floats raise OverflowError and ZeroDivisionError where numpy
    # returns inf; the loop turns them into the array loop's errors
    new_ctrl, old_ctrl = cstr_controllers[kind]
    with np.errstate(all="ignore"):
        with pytest.raises(HybridKernelError) as old:
            oracles.simulate(oracles.plant, old_ctrl, x0, 0.01, 1.0)
        with pytest.raises(HybridKernelError) as new:
            control.simulate(kp.cstr_plant, new_ctrl, x0, 0.01, 1.0)
    assert type(old.value) is error
    assert type(new.value) is error


def test_simulate_matches_list_based_loop():
    basis = kp.MonomialBasis(q=3)
    ctrl = control.make_truth_controller(basis, kp.cstr_f0_true, kp.cstr_f1)

    def plant(x, u):
        return kp.cstr_f0_true(x) + u * kp.cstr_f1(x)

    traj = control.simulate(plant, ctrl, [0.2, -0.15], 0.01, 2.0)
    times, states, controls = oracles.simulate(plant, ctrl, [0.2, -0.15], 0.01, 2.0)
    assert_bit_equal(traj.times, times)
    assert_bit_equal(traj.states, states)
    assert_bit_equal(traj.controls, controls)


def test_drift_matrix_is_formed_once():
    rng = np.random.default_rng(0)
    basis = kp.MonomialBasis(q=2)
    model = kp.assemble_bilinear(np.array([0.4, 0.6]), rng.standard_normal((4, 4)),
                                 rng.standard_normal((2, 4, 4)),
                                 [(rng.standard_normal(4), rng.standard_normal((4, 4)))],
                                 basis)
    assert model.drift_matrix is model.drift_matrix
    assert_bit_equal(model.drift_matrix,
                     np.tensordot(model.weights, model.closure_A, axes=1) + model.residual)

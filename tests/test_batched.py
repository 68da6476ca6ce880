"""The batched Koopman and control paths against the per-point oracles, and
the closed loop on Python floats against the loop on numpy arrays.

Every batched result must equal the per-point oracle bit for bit, except
``hybrid_generator_objective``: it sums the squared residuals with np.sum, not
one point at a time, and matches the oracle to 1e-12 relative. The batched
``hybrid_generator_objective`` and ``closure_residual`` live in ``oracles``
too, since only tests call them. The float rates of V sum in another order
than the numpy rates in ``oracles``; they, and closed loops run with them,
match those to 1e-12 absolute.
"""

import math
from unittest import mock

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
# coordinates up to 1e150 in size, subnormals, signed zeros and non-finite ones
wide_coords = (st.floats(min_value=-1e150, max_value=1e150, width=64)
               | st.floats(min_value=-1e-306, max_value=1e-306, width=64)
               | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]))


def state_arrays(min_n=1, max_n=40):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=coords))


def unit_thetas(max_m=6):
    return st.integers(min_value=1, max_value=max_m).flatmap(
        lambda m: arrays(np.float64, (m, 2),
                         elements=st.floats(min_value=0.0, max_value=1.0, width=64)))


def float_plant(x1, x2, u):
    """f0 + u f1 from the float fields, as control.simulate forms it per stage."""
    p1, p2, q1, q2 = kp.cstr_fields(x1, x2)
    return p1 + u * q1, p2 + u * q2


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
    assert_bit_equal(np.array([oracles.psi_at(basis, x) for x in points]), basis.eval(X))
    assert_bit_equal(np.array([oracles.jacobian_at(basis, x) for x in points]),
                     basis.jacobian(X))


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
    for field in (kp.cstr_f0_true, kp.cstr_f1, lambda x: kp.cstr_f0_family(x, [(0.3, 0.8)])):
        assert_bit_equal(field(X), np.stack([field(x) for x in X]))
    # the float fields, and the plant f0 + u f1 that the closed loop forms of them
    points = X.tolist()
    fields = [kp.cstr_fields(*x) for x in points]
    assert all(len(f) == 4 and all(type(v) is float for v in f) for f in fields)
    assert_bit_equal(np.array([f[:2] for f in fields]), kp.cstr_f0_true(X))
    assert_bit_equal(np.array([f[2:] for f in fields]), kp.cstr_f1(X))
    assert_bit_equal(np.array([float_plant(*x, u) for x in points]), oracles.plant(X, u))


@SETTINGS
@given(state_arrays(), unit_thetas())
def test_family_of_all_thetas_matches_per_theta_stack(X, thetas):
    expected = np.stack([oracles.cstr_f0_member(X, th) for th in thetas], axis=1)
    assert_bit_equal(kp.cstr_f0_family(X, thetas), expected)
    assert_bit_equal(kp.cstr_f0_family(X[0], thetas), expected[0])
    grid = kp.default_closure_grid()
    assert_bit_equal(kp.cstr_f0_family(grid, thetas),
                     np.stack([oracles.cstr_f0_member(grid, th) for th in thetas], axis=1))


@SETTINGS
@given(orders, state_arrays(min_n=12, max_n=60), unit_thetas(),
       st.floats(min_value=1e-6, max_value=10.0))
def test_hybrid_generator_matches_per_point_assembly(q, X, thetas, lam):
    basis = kp.MonomialBasis(q=q)
    sample = kp.DriftSample(states=X, drift_velocities=kp.cstr_f1(X))
    design = kp.generator_design(sample, kp.cstr_f0_family, thetas, basis)
    family = oracles.cstr_f0_member
    S, s, _ = kp.hybrid_generator_problem(design, 1e-8, lam)
    Q, q_lin, const = oracles.hybrid_generator_problem(sample, family, thetas, basis,
                                                       1e-8, lam)
    S_dense, s_dense, _, _ = oracles.eliminate_free_block(oracles.SimplexQpProblem(
        Q=Q, q_lin=q_lin, m_simplex=len(thetas), n_free=basis.N ** 2))
    # relative to the stacked problem's scale: eliminating R cancels, and at
    # lam = 1e-6 leaves entries up to 1e8 times smaller than the terms they
    # are the difference of; both reductions agree with a QR-based one to
    # about 1e-15 of that scale
    scale = np.abs(Q).max()
    assert np.abs(S - S_dense).max() <= 1e-10 * scale
    assert np.abs(s - s_dense).max() <= 1e-10 * scale
    assert design.ZtZ[-1, -1] == pytest.approx(const, rel=1e-12)
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
    fields = (lambda x: kp.cstr_f0_family(x, [theta])[..., 0, :], kp.cstr_f1,
              lambda x: np.array([0.25, -0.5]))  # a constant field returns one (2,)
    for field in fields:
        beta, gamma = kp.closure_fit(field, basis, grid=grid, affine=affine)
        beta_old, gamma_old = oracles.closure_fit(field, basis, grid=grid, affine=affine)
        assert_bit_equal(beta, beta_old)
        assert_bit_equal(gamma, gamma_old)
        assert (oracles.closure_residual(field, basis, beta, gamma, grid=grid)
                == oracles.closure_residual_per_point(field, basis, beta, gamma, grid=grid))


def test_family_closures_fit_in_one_solve_match_per_member_fits():
    # fit_closures stacks the m family fields into one least-squares solve;
    # each closure has the bits of that member's own fit
    basis = kp.MonomialBasis(q=3)
    thetas = np.random.default_rng(0).uniform(0.0, 1.0, size=(7, 2))
    A, beta, gamma = experiments.fit_closures(thetas, basis)
    assert_bit_equal(A, np.stack([oracles.closure_fit(
        lambda x, th=th: oracles.cstr_f0_member(x, th), basis)[1] for th in thetas]))
    for new, old in zip((beta, gamma), oracles.closure_fit(kp.cstr_f1, basis, affine=True)):
        assert_bit_equal(new, old)
    beta0, _ = kp.closure_fit(lambda x: kp.cstr_f0_family(x, thetas), basis)
    assert_bit_equal(beta0, np.zeros((7, basis.N)))


def test_default_closures_match_per_point_fit():
    basis = kp.MonomialBasis(q=3)
    for field, affine in ((kp.cstr_f1, True),
                          (lambda x: kp.cstr_f0_family(x, [(0.6, 0.2)])[..., 0, :], False)):
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
    points = list(map(tuple, X.tolist()))
    assert_bit_equal(np.array([oracles.psi_at(basis, x) for x in points]), psi)
    assert_bit_equal(np.array([oracles.jacobian_at(basis, x) for x in points]), J)


def random_model(q: int, seed: int = 0) -> kp.KoopmanHybridModel:
    rng = np.random.default_rng(seed)
    N = 2 * q
    return kp.KoopmanHybridModel(kp.MonomialBasis(q=q), np.array([0.4, 0.6]),
                                 rng.standard_normal((N, N)), rng.standard_normal((2, N, N)),
                                 rng.standard_normal(N), rng.standard_normal((N, N)))


@pytest.mark.parametrize("q", range(1, 6))
def test_rates_match_numpy_rates_on_the_state_box(q):
    # the float rates sum in another order than psi' (J f) and z' (A z): the
    # same values to rounding
    basis, model = kp.MonomialBasis(q=q), random_model(q, seed=q)
    X = np.random.default_rng(q).uniform(-kp.STATE_BOX, kp.STATE_BOX, size=(500, 2))
    X[:4] = [[0.0, 0.0], [kp.STATE_BOX, kp.STATE_BOX], [-kp.STATE_BOX, 0.0],
             [0.0, -kp.STATE_BOX]]
    for x, point in zip(X, X.tolist()):
        new = control.clf_rates_fields(basis, *point, kp.cstr_fields(*point))
        old = oracles.clf_rates_fields(basis, kp.cstr_f0_true, kp.cstr_f1, x)
        assert np.max(np.abs(np.subtract(new, old))) <= 1e-12
        assert all(type(r) is float for r in new)
        new = tuple(kp.polyval(c, *point) for c in model.clf_rate_coeffs)
        old = oracles.clf_rates_model(model, x)
        assert np.max(np.abs(np.subtract(new, old))) <= 1e-12
        assert all(type(r) is float for r in new)


@SETTINGS
@given(orders, state_arrays(), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_model_polynomials_give_float_bits_on_coordinate_arrays(q, X, seed):
    # a batched closed loop needs the per-state bits; Horner's rule has only
    # + and *, which round alike on floats and on arrays
    model = random_model(q, seed)
    for coeffs in model.clf_rate_coeffs:
        batched = kp.polyval(coeffs, X[:, 0], X[:, 1])
        assert_bit_equal(batched, [kp.polyval(coeffs, *x) for x in map(tuple, X.tolist())])
    a, b = model.clf_rate_coeffs
    assert [(kp.polyval(a, *x), kp.polyval(b, *x)) for x in X.tolist()] == list(
        zip(kp.polyval(a, X[:, 0], X[:, 1]).tolist(), kp.polyval(b, X[:, 0], X[:, 1]).tolist()))


@SETTINGS
@given(orders, state_arrays())
def test_gradient_polynomials_give_float_bits_on_coordinate_arrays(q, X):
    # the truth rates read grad V from the same Horner's rule as the model's
    # rates, so a batched closed loop gets their per-state bits too
    for coeffs in kp.MonomialBasis(q=q).sq_norm_gradient_coeffs:
        batched = kp.polyval(coeffs, X[:, 0], X[:, 1])
        assert_bit_equal(batched, [kp.polyval(coeffs, *x) for x in map(tuple, X.tolist())])


@SETTINGS
@given(orders, st.integers(min_value=0, max_value=2 ** 32 - 1), wide_coords, wide_coords)
def test_model_controller_rates_are_polyval_bits(q, seed, x1, x2):
    # the model controller reads its two rate polynomials in one Horner loop;
    # each rate keeps polyval's bits, signed zeros and NaN included
    model = random_model(q, seed)
    a, b = model.clf_rate_coeffs
    with mock.patch.object(control, "lin_sontag", lambda ra, rb: (ra, rb)):
        rates = control.make_model_controller(model)(x1, x2, None)
    assert all(type(r) is float for r in rates)
    assert_bit_equal(rates, (kp.polyval(a, x1, x2), kp.polyval(b, x1, x2)))


def test_model_polynomials_give_float_bits_on_random_states():
    # 20 000 states meet the inputs on which a BLAS dot product and a
    # per-state sum round apart; Horner's rule must not
    X = np.random.default_rng(7).uniform(-1.0, 1.0, size=(20000, 2))
    points = list(map(tuple, X.tolist()))
    for q in (1, 3, 5):
        for coeffs in random_model(q, seed=q).clf_rate_coeffs:
            assert_bit_equal(kp.polyval(coeffs, X[:, 0], X[:, 1]),
                             [kp.polyval(coeffs, *x) for x in points])


@pytest.fixture(scope="module")
def cstr_controllers():
    """(new, oracle) controller pairs: the truth controller and a fitted model's."""
    basis = kp.MonomialBasis(q=3)
    (row,) = experiments.run_koopman(n=60, seed=0, m=5, lambda_grid=(1e-4,))
    model = row["model"]
    return {
        "truth": (control.make_truth_controller(basis), oracles.truth_controller(basis)),
        "model": (control.make_model_controller(model), oracles.model_controller(model)),
    }


def on_arrays(controller):
    """A float controller and the float plant as the array loop calls them: on
    (2,) state arrays, whose coordinates they get as Python floats; the
    controller gets the float fields at the state, as control.simulate passes
    them."""
    return ((lambda x: controller(*x.tolist(), kp.cstr_fields(*x.tolist()))),
            (lambda x, u: float_plant(*x.tolist(), u)))


@pytest.mark.parametrize("kind", ["truth", "model"])
@settings(max_examples=6, deadline=None)
@given(st.tuples(box_coords, box_coords), st.integers(min_value=200, max_value=260))
def test_float_loop_matches_array_loop(cstr_controllers, kind, x0, steps):
    new_ctrl, old_ctrl = cstr_controllers[kind]
    dt = 0.01
    traj = control.simulate(kp.cstr_fields, new_ctrl, x0, dt, steps * dt)
    # the same callables in the loop on numpy states: the same bits
    ctrl_on_arrays, plant_on_arrays = on_arrays(new_ctrl)
    times, states, controls = oracles.simulate(plant_on_arrays, ctrl_on_arrays, x0, dt,
                                               steps * dt)
    assert_bit_equal(traj.times, times)
    assert_bit_equal(traj.states, states)
    assert_bit_equal(traj.controls, controls)
    # the array plant and the numpy-rate controllers: V's rates are summed in
    # another order, so states and controls agree to rounding
    times, states, controls = oracles.simulate(oracles.plant, old_ctrl, x0, dt, steps * dt)
    assert_bit_equal(traj.times, times)
    assert np.max(np.abs(traj.states - states)) <= 1e-12
    assert np.max(np.abs(traj.controls - controls)) <= 1e-12


@pytest.mark.parametrize("kind", ["truth", "model"])
@pytest.mark.parametrize("x0, error", [((1e200, 0.0), NonFinite), ((-1.5, 0.0), DomainError)])
def test_float_loop_raises_as_array_loop(cstr_controllers, kind, x0, error):
    # Python floats raise ZeroDivisionError where numpy returns inf, and the
    # rates of V overflow to inf or NaN; the loop turns both into the array
    # loop's errors
    new_ctrl, old_ctrl = cstr_controllers[kind]
    with np.errstate(all="ignore"):
        with pytest.raises(HybridKernelError) as old:
            oracles.simulate(oracles.plant, old_ctrl, x0, 0.01, 1.0)
        with pytest.raises(HybridKernelError) as new:
            control.simulate(kp.cstr_fields, new_ctrl, x0, 0.01, 1.0)
    assert type(old.value) is error
    assert type(new.value) is error


def test_simulate_matches_list_based_loop():
    # the float loop on the float plant against the array loop on the array
    # plant, both under the truth controller: the same bits
    ctrl = control.make_truth_controller(kp.MonomialBasis(q=3))
    traj = control.simulate(kp.cstr_fields, ctrl, [0.2, -0.15], 0.01, 2.0)
    ctrl_on_arrays, _ = on_arrays(ctrl)
    times, states, controls = oracles.simulate(oracles.plant, ctrl_on_arrays, [0.2, -0.15],
                                               0.01, 2.0)
    assert_bit_equal(traj.times, times)
    assert_bit_equal(traj.states, states)
    assert_bit_equal(traj.controls, controls)


def test_drift_matrix_is_formed_once():
    model = random_model(q=2)
    assert model.drift_matrix is model.drift_matrix
    assert_bit_equal(model.drift_matrix,
                     np.tensordot(model.weights, model.closure_A, axes=1) + model.residual)
    assert model.clf_rate_coeffs is model.clf_rate_coeffs

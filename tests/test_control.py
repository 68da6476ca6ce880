"""Lyapunov function, bounded Lin-Sontag law, RK4 simulation, comparison."""

import numpy as np
import pytest

from hybridkernel import control as ctl
from hybridkernel import cli, experiments, koopman as kp
from hybridkernel.errors import DimensionMismatch, DomainError, GridMismatch, NonFinite
from oracles import clf_value_closed_form

BASIS3 = kp.MonomialBasis(q=3)


def zero_field(x1, x2):
    return 0.0, 0.0, 0.0, 0.0


def linear_decay(x1, x2):
    return -x1, -x2, 0.0, 0.0


class TestClfValue:
    def test_zero_at_origin(self):
        assert ctl.clf_value(BASIS3, np.zeros(2)) == 0.0
        assert clf_value_closed_form(BASIS3, np.zeros(2)) == 0.0

    def test_hand_value(self):
        x = np.array([0.5, 0.0])
        assert ctl.clf_value(BASIS3, x) == pytest.approx(0.328125, abs=1e-12)
        assert clf_value_closed_form(BASIS3, x) == pytest.approx(0.328125,
                                                                     abs=1e-12)

    def test_forms_agree_on_grid(self):
        axis = np.linspace(-0.25, 0.25, 41)
        for x1 in axis:
            for x2 in axis:
                x = np.array([x1, x2])
                assert abs(ctl.clf_value(BASIS3, x)
                           - clf_value_closed_form(BASIS3, x)) <= 1e-10

    def test_positive_away_from_origin(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-0.25, 0.25, size=2)
            if np.linalg.norm(x) > 1e-12:
                assert ctl.clf_value(BASIS3, x) > 0.0


class TestClfRates:
    def test_zero_at_origin(self):
        a, b = ctl.clf_rates_fields(BASIS3, 0.0, 0.0, kp.cstr_fields(0.0, 0.0))
        assert a == 0.0 and b == 0.0

    def test_matches_finite_difference_dvdt(self):
        # a + b u equals dV/dt along the constant-u flow, checked for u = 0, 1
        rng = np.random.default_rng(1)
        h = 1e-4
        backward = lambda x1, x2: tuple(-v for v in kp.cstr_fields(x1, x2))
        for _ in range(10):
            x0 = rng.uniform(-0.2, 0.2, size=2)
            a, b = ctl.clf_rates_fields(BASIS3, *x0.tolist(), kp.cstr_fields(*x0.tolist()))
            for u in (0.0, 1.0):
                fwd = ctl.simulate(kp.cstr_fields, lambda x1, x2, f: u, x0, h, h).states[-1]
                bwd = ctl.simulate(backward, lambda x1, x2, f: u, x0, h, h).states[-1]
                dvdt = (ctl.clf_value(BASIS3, fwd) - ctl.clf_value(BASIS3, bwd)) / (2 * h)
                assert abs(dvdt - (a + b * u)) < 1e-5

    def test_field_rates_overflow_is_non_finite(self):
        # grad V's polynomials overflow to inf or NaN at |x1| = 1e200
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            ctl.clf_rates_fields(BASIS3, 1e200, 0.0, kp.cstr_fields(1e200, 0.0))

    @pytest.mark.parametrize("x", [(1e100, 0.0), (-1e100, 0.0), (0.0, 1e200)])
    def test_field_rates_float_overflow_is_non_finite(self, x):
        # x1^3 is finite at |x1| = 1e100 but Horner's rule in grad V's
        # polynomials overflows to inf or NaN; so does x2 * x2 at 1e200
        with pytest.raises(NonFinite):
            ctl.clf_rates_fields(BASIS3, *x, kp.cstr_fields(*x))

    def test_model_rates_close_to_truth(self):
        # diagnostic: hybrid-model Lie derivatives track the ground truth on X
        (row,) = experiments.run_koopman(n=120, seed=0, m=10, lambda_grid=(1e-4,))
        model = row["model"]
        worst = 0.0
        for x in kp.sample_states(30, seed=2).tolist():
            at, bt = ctl.clf_rates_fields(BASIS3, *x, kp.cstr_fields(*x))
            am, bm = (kp.polyval(c, *x) for c in model.clf_rate_coeffs)
            worst = max(worst, abs(at - am), abs(bt - bm))
        assert worst < 0.05


class TestLinSontag:
    def test_zero_gain_gives_zero(self):
        assert ctl.lin_sontag(3.0, 0.0) == 0.0

    def test_hand_value(self):
        assert ctl.lin_sontag(0.0, 1.0) == pytest.approx(-1.0 / (1.0 + np.sqrt(2.0)),
                                                         abs=1e-10)
        assert ctl.lin_sontag(0.0, 1.0) == pytest.approx(-0.41421, abs=1e-5)

    def test_sign_opposes_input_gain(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(-5, 5)
            b = rng.uniform(-5, 5)
            if abs(b) < 1e-6:
                continue
            u = ctl.lin_sontag(a, b)
            # a + sqrt(a^2 + b^4) >= 0 always, so u opposes b (or is clamped)
            assert u * np.sign(b) <= 0.0

    def test_bound_respected(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = ctl.lin_sontag(rng.uniform(-100, 100), rng.uniform(-100, 100))
            assert -1.0 <= u <= 1.0

    def test_decrease_when_achievable(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.uniform(-1, 1)
            b = rng.uniform(-2, 2)
            if abs(b) < 1e-3:
                continue
            u = ctl.lin_sontag(a, b)
            if abs(u) < 1.0:  # unclamped: the formula certifies decrease
                assert a + b * u < 0.0

    def test_overflow_is_non_finite(self):
        # b ** 4 on Python floats raises OverflowError where numpy returns inf
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            ctl.lin_sontag(0.0, 1e100)


    @pytest.mark.parametrize("a, b", [(float("nan"), 0.5), (float("-inf"), 0.5),
                                      (0.5, float("nan")), (float("nan"), 0.0),
                                      (float("nan"), 1e-13)])
    def test_nan_is_non_finite(self, a, b):
        with pytest.raises(NonFinite):
            ctl.lin_sontag(a, b)

    def test_infinite_drift_rate_clamps(self):
        assert ctl.lin_sontag(float("inf"), 0.5) == -1.0


class TestSimulate:
    def test_constant_trajectory_for_zero_field(self):
        traj = ctl.simulate(zero_field, lambda x1, x2, f: 0.7,
                            np.array([0.1, -0.2]), 0.1, 1.0)
        np.testing.assert_allclose(traj.states, np.tile([0.1, -0.2], (11, 1)),
                                   atol=1e-15)
        np.testing.assert_array_equal(traj.controls, np.full(10, 0.7))

    def test_exponential_decay(self):
        traj = ctl.simulate(linear_decay, lambda x1, x2, f: 0.0,
                            np.array([1.0, 1.0]), 0.01, 1.0)
        np.testing.assert_allclose(traj.states[-1], np.exp(-1.0) * np.ones(2),
                                   atol=1e-8)

    def test_rk4_order(self):
        # halving dt cuts the global error on a linear system by about 16x
        exact = np.exp(-1.0) * np.ones(2)
        errs = []
        for dt in (0.1, 0.05):
            traj = ctl.simulate(linear_decay, lambda x1, x2, f: 0.0,
                                np.ones(2), dt, 1.0)
            errs.append(np.linalg.norm(traj.states[-1] - exact))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    @pytest.mark.parametrize("dt, horizon", [(0.3, 1.0), (0.01, 10.005), (0.1, 1.0 + 1e-6)])
    def test_rejects_horizon_not_whole_steps(self, dt, horizon):
        with pytest.raises(DomainError):
            ctl.simulate(zero_field, lambda x1, x2, f: 0.0, np.ones(2), dt, horizon)

    @pytest.mark.parametrize("dt, horizon", [(0.0, 1.0), (-0.1, 1.0), (float("nan"), 1.0),
                                             (0.1, float("nan")), (0.1, float("inf")),
                                             (0.5, 0.2)])
    def test_rejects_bad_step_or_horizon(self, dt, horizon):
        with pytest.raises(DomainError):
            ctl.simulate(zero_field, lambda x1, x2, f: 0.0, np.ones(2), dt, horizon)

    @pytest.mark.parametrize("dt, horizon, steps", [(0.01, 10.0, 1000), (0.1, 0.3, 3)])
    def test_whole_steps_up_to_rounding(self, dt, horizon, steps):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        traj = ctl.simulate(zero_field, lambda x1, x2, f: 0.0, np.ones(2), dt, horizon)
        assert traj.controls.size == steps and traj.times.size == steps + 1

    def test_nonfinite_escape_detected(self):
        with pytest.raises(NonFinite):
            ctl.simulate(lambda x1, x2: (100.0 * x1, 100.0 * x2, 0.0, 0.0),
                         lambda x1, x2, f: 0.0, np.ones(2), 0.5, 50.0)

    @pytest.mark.parametrize("x0", [np.ones(3), np.ones(1), np.ones((1, 2)), 0.5, []])
    def test_rejects_a_state_not_of_shape_2(self, x0):
        with pytest.raises(DimensionMismatch):
            ctl.simulate(zero_field, lambda x1, x2, f: 0.0, x0, 0.1, 1.0)

    def test_truth_loop_calls_the_plant_four_times_per_step(self, monkeypatch):
        # simulate hands the step's stage-1 fields to the controller, so the
        # truth controller's rates evaluate the plant no second time; every
        # binding of cstr_fields is counted
        calls, fields = [], kp.cstr_fields

        def counted(x1, x2):
            calls.append((x1, x2))
            return fields(x1, x2)

        monkeypatch.setattr(kp, "cstr_fields", counted)
        monkeypatch.setattr(ctl, "cstr_fields", counted, raising=False)
        traj = ctl.simulate(kp.cstr_fields, ctl.make_truth_controller(BASIS3),
                            np.array([0.2, -0.15]), 0.01, 1.0)
        assert traj.controls.size == 100
        assert len(calls) == 4 * 100

    def test_lyapunov_decrease_under_truth_controller(self):
        controller = ctl.make_truth_controller(BASIS3)
        for x0 in kp.sample_states(3, seed=6):
            traj = ctl.simulate(kp.cstr_fields, controller, x0, 0.01, 10.0)
            v = np.array([ctl.clf_value(BASIS3, x) for x in traj.states])
            assert np.all(np.diff(v) <= 1e-6)
            assert np.linalg.norm(traj.states[-1]) < np.linalg.norm(x0)


class TestCompareTrajectories:
    def make(self, offset=0.0):
        states = np.column_stack([np.linspace(0, 1, 5), np.zeros(5)]) + offset
        return ctl.Trajectory(times=np.linspace(0, 1, 5), states=states,
                              controls=np.zeros(4))

    def test_identical(self):
        assert ctl.compare_trajectories(self.make(), self.make()) == 0.0

    def test_constant_offset(self):
        d = ctl.compare_trajectories(self.make(), self.make(offset=0.3))
        assert d == pytest.approx(0.3 * np.sqrt(2.0), abs=1e-12)

    def test_grid_mismatch(self):
        other = ctl.Trajectory(times=np.linspace(0, 2, 5),
                               states=np.zeros((5, 2)), controls=np.zeros(4))
        with pytest.raises(GridMismatch):
            ctl.compare_trajectories(self.make(), other)

    def test_csv_export(self, tmp_path):
        path = tmp_path / "traj.csv"
        traj = self.make()
        cli.RunOutput(tmp_path).csv("traj.csv", cli.TRAJECTORY_COLUMNS,
                                    cli.TimeColumn(traj.times).rows(traj))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,u"
        assert len(lines) == 6

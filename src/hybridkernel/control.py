"""Lyapunov-based control with the bounded Lin-Sontag formula, RK4 closed-loop
simulation, and trajectory comparison for the reactor case study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainError, GridMismatch, NonFinite
from .koopman import KoopmanHybridModel, MonomialBasis, polyval

B_DEADBAND = 1e-12


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        u = np.asarray(self.controls, dtype=float)
        if x.shape[0] != t.size or u.size not in (t.size, t.size - 1):
            raise DimensionMismatch("trajectory arrays have inconsistent lengths")
        if not np.all(np.isfinite(x)):
            raise NonFinite("trajectory contains non-finite states")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)
        object.__setattr__(self, "controls", u)


def clf_value(basis: MonomialBasis, x):
    """V(x) = ||psi(x)||^2: a float at one state, a (T,) array for (T, 2) states."""
    psi = basis.eval(x)
    v = (psi[..., None, :] @ psi[..., None])[..., 0, 0]
    return float(v) if v.ndim == 0 else v


def _point(x) -> tuple:
    """One state as a tuple of floats; simulate passes its states as such."""
    return x if type(x) is tuple else tuple(np.asarray(x, dtype=float).ravel().tolist())


def clf_rates_fields(basis: MonomialBasis, f0: Callable, f1: Callable, x) -> tuple[float, float]:
    """Lie derivatives of V along drift and input channel of the true plant;
    f0 and f1 receive the state as a tuple of floats. Raises NonFinite where
    grad V is not finite."""
    x = _point(x)
    g1, g2 = basis.sq_norm_gradient_at(*x)
    (f01, f02), (f11, f12) = f0(x), f1(x)
    return float(g1 * f01 + g2 * f02), float(g1 * f11 + g2 * f12)


def clf_rates_model(model: KoopmanHybridModel, x) -> tuple[float, float]:
    """Lie derivatives of V computed on the bilinear lifted model at z = psi(x),
    from the model's polynomials in (x1, x2)."""
    x1, x2 = _point(x)
    a, b = model.clf_rate_coeffs
    return polyval(a, x1, x2), polyval(b, x1, x2)


def lin_sontag(a: float, b: float) -> float:
    """Bounded-control universal CLF formula for |u| <= 1, clamped to [-1, 1];
    raises NonFinite where b ** 4 overflows (|b| above about 1e77) or the
    formula gives NaN (a NaN rate, or a = -inf)."""
    if abs(b) < B_DEADBAND:
        return 0.0
    try:
        u = -(a + math.sqrt(a * a + b ** 4)) / (b * (1.0 + math.sqrt(1.0 + b * b)))
    except OverflowError as e:
        raise NonFinite(f"Lin-Sontag formula overflows at b={b!r}") from e
    if math.isnan(u):
        raise NonFinite(f"Lin-Sontag formula is NaN at a={a!r}, b={b!r}")
    return float(min(max(u, -1.0), 1.0))


def _floats(v):
    """A dynamics result as a sequence of floats; an array becomes a list."""
    return v.tolist() if isinstance(v, np.ndarray) else v


def simulate(dynamics: Callable, controller: Callable, x0, dt: float,
             horizon: float) -> Trajectory:
    """Classical RK4 with zero-order-hold control over each step; the horizon
    must be a whole number of steps (to 1e-9 relative).

    The state is carried as a tuple of Python floats: controller(x) and
    dynamics(x, u) receive that tuple, and dynamics returns a sequence of
    floats (an array is accepted). A state that overflows or turns NaN raises
    NonFinite.
    """
    if not 0 < dt <= horizon < math.inf:
        raise DomainError(f"need 0 < dt <= horizon < inf, got dt={dt}, horizon={horizon}")
    steps = round(horizon / dt)
    if abs(horizon / dt - steps) > 1e-9 * steps:
        raise DomainError(f"horizon {horizon} is not a whole number of steps of {dt}")
    x = tuple(np.asarray(x0, dtype=float).ravel().tolist())
    half, sixth = 0.5 * dt, dt / 6.0
    states, controls = [x], []
    for step in range(steps):
        u = float(controller(x))
        k1 = _floats(dynamics(x, u))
        k2 = _floats(dynamics(tuple([xi + half * ki for xi, ki in zip(x, k1)]), u))
        k3 = _floats(dynamics(tuple([xi + half * ki for xi, ki in zip(x, k2)]), u))
        k4 = _floats(dynamics(tuple([xi + dt * ki for xi, ki in zip(x, k3)]), u))
        x = tuple([xi + sixth * (a + 2.0 * b + 2.0 * c + d)
                   for xi, a, b, c, d in zip(x, k1, k2, k3, k4)])
        if not all(map(math.isfinite, x)):
            raise NonFinite(f"state became non-finite at step {step}")
        controls.append(u)
        states.append(x)
    return Trajectory(times=np.arange(steps + 1) * dt, states=np.array(states),
                      controls=np.array(controls))


def compare_trajectories(t1: Trajectory, t2: Trajectory) -> float:
    """Max over time of the Euclidean state distance; requires shared time grids."""
    if t1.times.size != t2.times.size or np.max(np.abs(t1.times - t2.times)) > 1e-12:
        raise GridMismatch("trajectories are on different time grids")
    return float(np.max(np.linalg.norm(t1.states - t2.states, axis=1)))


def make_truth_controller(basis: MonomialBasis, f0: Callable, f1: Callable) -> Callable:
    def controller(x):
        a, b = clf_rates_fields(basis, f0, f1, x)
        return lin_sontag(a, b)
    return controller


def make_model_controller(model: KoopmanHybridModel) -> Callable:
    def controller(x):
        a, b = clf_rates_model(model, x)
        return lin_sontag(a, b)
    return controller

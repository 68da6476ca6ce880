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


def clf_rates_fields(basis: MonomialBasis, x1: float, x2: float, f) -> tuple[float, float]:
    """Lie derivatives of V along the CSTR's drift and input channel at one
    state of floats, given the fields f = koopman.cstr_fields(x1, x2). Raises
    NonFinite where grad V is not finite."""
    d1, d2 = basis.sq_norm_gradient_coeffs
    g1, g2 = polyval(d1, x1, x2), polyval(d2, x1, x2)
    if not (math.isfinite(g1) and math.isfinite(g2)):
        raise NonFinite(f"grad ||psi||^2 is not finite at x=({x1}, {x2})")
    f01, f02, f11, f12 = f
    return g1 * f01 + g2 * f02, g1 * f11 + g2 * f12


def lin_sontag(a: float, b: float) -> float:
    """Bounded-control universal CLF formula for |u| <= 1, clamped to [-1, 1];
    raises NonFinite where b ** 4 overflows (|b| above about 1e77) or the
    formula gives NaN (a NaN rate, or a = -inf)."""
    if abs(b) < B_DEADBAND:
        if math.isnan(a):
            raise NonFinite(f"Lin-Sontag drift rate is NaN at b={b!r}")
        return 0.0
    try:
        u = -(a + math.sqrt(a * a + b ** 4)) / (b * (1.0 + math.sqrt(1.0 + b * b)))
    except OverflowError as e:
        raise NonFinite(f"Lin-Sontag formula overflows at b={b!r}") from e
    if math.isnan(u):
        raise NonFinite(f"Lin-Sontag formula is NaN at a={a!r}, b={b!r}")
    return -1.0 if u < -1.0 else 1.0 if u > 1.0 else float(u)


def simulate(fields: Callable, controller: Callable, x0, dt: float,
             horizon: float) -> Trajectory:
    """Classical RK4 of xdot = f0(x) + u f1(x) with u held over each step; the
    horizon must be a whole number of steps (to 1e-9 relative).

    The state is carried as two Python floats. fields(x1, x2), called once per
    stage, gives (f0_1, f0_2, f1_1, f1_2) as koopman.cstr_fields does; u is
    controller(x1, x2, f), f the step's stage-1 fields. x0 must have shape (2,),
    else DimensionMismatch. A state that overflows or turns NaN raises NonFinite.
    """
    if not 0 < dt <= horizon < math.inf:
        raise DomainError(f"need 0 < dt <= horizon < inf, got dt={dt}, horizon={horizon}")
    steps = round(horizon / dt)
    if abs(horizon / dt - steps) > 1e-9 * steps:
        raise DomainError(f"horizon {horizon} is not a whole number of steps of {dt}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,):
        raise DimensionMismatch(f"need a state of shape (2,), got {x0.shape}")
    x1, x2 = x0.tolist()
    half, sixth = 0.5 * dt, dt / 6.0
    xs1, xs2, controls = [x1], [x2], []
    for step in range(steps):
        f = p1, p2, q1, q2 = fields(x1, x2)
        u = float(controller(x1, x2, f))
        a1, a2 = p1 + u * q1, p2 + u * q2
        p1, p2, q1, q2 = fields(x1 + half * a1, x2 + half * a2)
        b1, b2 = p1 + u * q1, p2 + u * q2
        p1, p2, q1, q2 = fields(x1 + half * b1, x2 + half * b2)
        c1, c2 = p1 + u * q1, p2 + u * q2
        p1, p2, q1, q2 = fields(x1 + dt * c1, x2 + dt * c2)
        d1, d2 = p1 + u * q1, p2 + u * q2
        x1 += sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        x2 += sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise NonFinite(f"state became non-finite at step {step}")
        controls.append(u)
        xs1.append(x1)
        xs2.append(x2)
    return Trajectory(times=np.arange(steps + 1) * dt, states=np.column_stack((xs1, xs2)),
                      controls=np.array(controls))


def compare_trajectories(t1: Trajectory, t2: Trajectory) -> float:
    """Max over time of the Euclidean state distance; requires shared time grids."""
    if t1.times.size != t2.times.size or np.max(np.abs(t1.times - t2.times)) > 1e-12:
        raise GridMismatch("trajectories are on different time grids")
    return float(np.max(np.linalg.norm(t1.states - t2.states, axis=1)))


def make_truth_controller(basis: MonomialBasis) -> Callable:
    """simulate's ground-truth CLF controller: V's rates from grad V and f."""
    def controller(x1, x2, f):
        return lin_sontag(*clf_rates_fields(basis, x1, x2, f))
    return controller


def make_model_controller(model: KoopmanHybridModel) -> Callable:
    """simulate's CLF controller from the model's rates (f is ignored): one Horner
    loop of polyval's operations over both polynomials, so polyval's bits."""
    rows = tuple(ra + rb for ra, rb in zip(*model.clf_rate_coeffs))

    def controller(x1, x2, f):
        a = b = 0.0
        for a0, a1, a2, b0, b1, b2 in rows:
            a = a * x1 + (a0 + x2 * (a1 + x2 * a2))
            b = b * x1 + (b0 + x2 * (b1 + x2 * b2))
        return lin_sontag(a, b)
    return controller

"""Lyapunov-based control with the bounded Lin-Sontag formula, RK4 closed-loop
simulation, and trajectory comparison for the reactor case study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainError, GridMismatch, NonFinite
from .koopman import KoopmanHybridModel, MonomialBasis

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

    def save_csv(self, path) -> None:
        """Rows t,x1,x2,u as csv.writer writes them: CRLF, u empty without a control."""
        rows = zip_longest(self.times.tolist(), *self.states[:, :2].T.tolist(),
                           map(repr, self.controls.tolist()), fillvalue="")
        with Path(path).open("w", newline="") as fh:
            fh.write("t,x1,x2,u\r\n")
            fh.writelines(f"{t!r},{x1!r},{x2!r},{u}\r\n" for t, x1, x2, u in rows)


def clf_value(basis: MonomialBasis, x):
    """V(x) = ||psi(x)||^2: a float at one state, a (T,) array for (T, 2) states."""
    psi = basis.eval(x)
    v = (psi[..., None, :] @ psi[..., None])[..., 0, 0]
    return float(v) if v.ndim == 0 else v


def clf_rates_fields(basis: MonomialBasis, f0: Callable, f1: Callable, x) -> tuple[float, float]:
    """Lie derivatives of V along drift and input channel of the true plant."""
    x = np.asarray(x, dtype=float).ravel()
    psi = basis.eval(x)
    J = basis.jacobian(x)
    a = 2.0 * float(psi @ (J @ np.asarray(f0(x), dtype=float).ravel()))
    b = 2.0 * float(psi @ (J @ np.asarray(f1(x), dtype=float).ravel()))
    return a, b


def clf_rates_model(model: KoopmanHybridModel, x, channel: int = 0) -> tuple[float, float]:
    """Lie derivatives of V computed on the bilinear lifted model at z = psi(x)."""
    z = model.basis.eval(np.asarray(x, dtype=float).ravel())
    a = 2.0 * float(z @ (model.drift_matrix @ z))
    b = 2.0 * float(z @ (model.input_betas[channel] + model.input_gammas[channel] @ z))
    return a, b


def lin_sontag(a: float, b: float, bound: float = 1.0) -> float:
    """Bounded-control universal CLF formula, clamped to [-bound, bound]."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if abs(b) < B_DEADBAND:
        return 0.0
    u = -(a + math.sqrt(a * a + b ** 4)) / (b * (1.0 + math.sqrt(1.0 + b * b)))
    return float(min(max(u, -bound), bound))


def simulate(dynamics: Callable, controller: Callable, x0, dt: float,
             horizon: float) -> Trajectory:
    """Classical RK4 with zero-order-hold control over each step; the horizon
    must be a whole number of steps (to 1e-9 relative)."""
    if not 0 < dt <= horizon < math.inf:
        raise DomainError(f"need 0 < dt <= horizon < inf, got dt={dt}, horizon={horizon}")
    steps = round(horizon / dt)
    if abs(horizon / dt - steps) > 1e-9 * steps:
        raise DomainError(f"horizon {horizon} is not a whole number of steps of {dt}")
    x = np.asarray(x0, dtype=float).ravel()
    states = np.empty((steps + 1, x.size))
    controls = np.empty(steps)
    states[0] = x
    for step in range(steps):
        u = float(controller(x))
        k1 = np.asarray(dynamics(x, u), dtype=float)
        k2 = np.asarray(dynamics(x + 0.5 * dt * k1, u), dtype=float)
        k3 = np.asarray(dynamics(x + 0.5 * dt * k2, u), dtype=float)
        k4 = np.asarray(dynamics(x + dt * k3, u), dtype=float)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise NonFinite(f"state became non-finite at step {step}")
        controls[step] = u
        states[step + 1] = x
    return Trajectory(times=np.arange(steps + 1) * dt, states=states, controls=controls)


def compare_trajectories(t1: Trajectory, t2: Trajectory) -> float:
    """Max over time of the Euclidean state distance; requires shared time grids."""
    if t1.times.size != t2.times.size or np.max(np.abs(t1.times - t2.times)) > 1e-12:
        raise GridMismatch("trajectories are on different time grids")
    return float(np.max(np.linalg.norm(t1.states - t2.states, axis=1)))


def make_truth_controller(basis: MonomialBasis, f0: Callable, f1: Callable,
                          bound: float = 1.0) -> Callable:
    def controller(x):
        a, b = clf_rates_fields(basis, f0, f1, x)
        return lin_sontag(a, b, bound)
    return controller


def make_model_controller(model: KoopmanHybridModel, bound: float = 1.0,
                          channel: int = 0) -> Callable:
    def controller(x):
        a, b = clf_rates_model(model, x, channel)
        return lin_sontag(a, b, bound)
    return controller

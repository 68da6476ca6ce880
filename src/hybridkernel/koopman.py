"""Continuous-time Koopman machinery for the CSTR case study: monomial basis,
lifted velocities, hybrid generator identification over a simplex of
parameterized drifts, affine closures, and the bilinear lifted model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import simplex_qp
from .errors import DimensionMismatch, DomainError, MalformedModel, NotConverged
from .linalg import solve_least_squares, unvec

STATE_BOX = 0.25  # X = [-1/4, 1/4]^2


@dataclass(frozen=True)
class MonomialBasis:
    """psi(x) = (x1, ..., x1^q, x2, x1 x2, ..., x1^{q-1} x2); N = 2q, psi(0) = 0."""

    q: int

    def __post_init__(self):
        if self.q < 1:
            raise DomainError("need q >= 1")

    @property
    def N(self) -> int:
        return 2 * self.q

    @property
    def exponents(self) -> list[tuple[int, int]]:
        return [(k, 0) for k in range(1, self.q + 1)] + [(k, 1) for k in range(self.q)]

    def _terms(self, x1, x2) -> list:
        """psi's entries from the coordinates, floats or arrays. The array
        ``**`` is x*x for squares and numpy's SIMD pow otherwise, which differs
        from libm's (Python's ``**``) in the last bit; so squares are x1 * x1
        and higher powers go through np.power on both paths."""
        powers = [x1, x1 * x1][:self.q] + [np.power(x1, k) for k in range(3, self.q + 1)]
        return powers + [x2] + [p * x2 for p in powers[:-1]]

    def eval(self, x) -> np.ndarray:
        """psi at states of shape (..., 2), as an (..., N) array."""
        x = np.asarray(x, dtype=float)
        return np.stack(self._terms(x[..., 0], x[..., 1]), axis=-1)

    def eval_at(self, x) -> np.ndarray:
        """psi at one state given as (x1, x2) floats, bit for bit a row of eval."""
        return np.array(self._terms(*x))

    def jacobian(self, x) -> np.ndarray:
        """Partial derivatives of psi at states of shape (..., 2), as (..., N, 2).

        np.float_power takes libm's pow per element, as numpy scalars do; the
        array ``**`` (x*x for squares, else SIMD) differs in the last bit.
        """
        x = np.asarray(x, dtype=float)
        x1, x2, pw = x[..., 0], x[..., 1], np.float_power
        J = np.zeros(x.shape[:-1] + (self.N, 2))
        for row, (i, j) in enumerate(self.exponents):
            J[..., row, 0] = i * pw(x1, i - 1) * pw(x2, j) if i >= 1 else 0.0
            J[..., row, 1] = pw(x1, i) * j * pw(x2, j - 1) if j >= 1 else 0.0
        return J

    def jacobian_at(self, x) -> np.ndarray:
        """Dpsi at one state given as (x1, x2) floats, bit for bit a row of
        jacobian: Python's ``**`` on floats is libm's pow, as np.float_power is."""
        x1, x2 = x
        return np.array([d for i, j in self.exponents
                         for d in (i * x1 ** (i - 1) * x2 ** j if i >= 1 else 0.0,
                                   x1 ** i * j * x2 ** (j - 1) if j >= 1 else 0.0)]
                        ).reshape(self.N, 2)


def _matvec(J: np.ndarray, v) -> np.ndarray:
    """Row-wise J_i @ v_i, bit for bit the per-row ``J @ v`` (np.einsum is not)."""
    return (J @ np.asarray(v, dtype=float)[..., None])[..., 0]


@dataclass(frozen=True)
class DriftSample:
    """States in X with their exact drift velocities f0_true(x)."""

    states: np.ndarray
    drift_velocities: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.states, dtype=float)
        V = np.asarray(self.drift_velocities, dtype=float)
        if X.ndim != 2 or X.shape[1] != 2 or V.shape != X.shape:
            raise DimensionMismatch("states and velocities must both be (n, 2)")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(V))):
            raise DomainError("sample contains NaN/Inf")
        object.__setattr__(self, "states", X)
        object.__setattr__(self, "drift_velocities", V)

    @property
    def size(self) -> int:
        return self.states.shape[0]


def _f0_true(x):
    """The CSTR drift formula at x = (x1, x2): floats or coordinate arrays."""
    x1, x2 = x
    rate = 9.0 * (1.0 + x1) / (4.0 * (3.0 + 2.0 * x1))
    return (3.0 - x1) / 4.0 - rate, -3.0 * (1.0 + x2) / 4.0 + rate


def _on_states(formula, x) -> np.ndarray:
    """formula at the coordinate arrays of (..., 2) states, as an (..., 2) array."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    out[..., 0], out[..., 1] = formula((x[..., 0], x[..., 1]))
    return out


def cstr_f0_true(x) -> np.ndarray:
    """CSTR drift with fractional kinetics; steady state at the origin."""
    x = np.asarray(x, dtype=float)
    if np.count_nonzero(3.0 + 2.0 * x[..., 0] == 0.0):
        raise DomainError("drift undefined at 3 + 2 x1 = 0")
    return _on_states(_f0_true, x)


def cstr_f0_true_at(x) -> tuple[float, float]:
    """cstr_f0_true at one state given as (x1, x2) floats, as a tuple of floats."""
    if 3.0 + 2.0 * x[0] == 0.0:
        raise DomainError("drift undefined at 3 + 2 x1 = 0")
    return _f0_true(x)


def cstr_f1(x) -> np.ndarray:
    """Known input channel (throughput convection)."""
    return _on_states(cstr_f1_at, x)


def cstr_f1_at(x) -> tuple[float, float]:
    """cstr_f1 at one state given as (x1, x2) floats, as a tuple of floats;
    cstr_f1 runs the same formula on coordinate arrays."""
    x1, x2 = x
    return (3.0 - x1) / 4.0, -(1.0 + x2) / 4.0


def cstr_plant(x, u: float) -> tuple[float, float]:
    """The true plant f0_true(x) + u f1(x) at one state of floats; the
    closed-loop dynamics that control.simulate integrates."""
    (a1, a2), (b1, b2) = cstr_f0_true_at(x), cstr_f1_at(x)
    return a1 + u * b1, a2 + u * b2


def cstr_f0_family(x, theta) -> np.ndarray:
    """Polynomial drift family f0(x|theta), theta in [0, 1]^2."""
    x = np.asarray(x, dtype=float)
    t1, t2 = float(theta[0]), float(theta[1])
    x1, x2 = x[..., 0], x[..., 1]
    kin = t1 * x1 + t2 * x1 * x1
    return np.stack([-x1 / 4.0 - kin, -3.0 * x2 / 4.0 + kin], axis=-1)


def sample_states(n: int, seed: int) -> np.ndarray:
    """n states uniform on X, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-STATE_BOX, STATE_BOX, size=(n, 2))


def make_drift_sample(n: int, seed: int, field: Callable = cstr_f0_true) -> DriftSample:
    states = sample_states(n, seed)
    return DriftSample(states=states, drift_velocities=field(states))


@dataclass(frozen=True)
class GeneratorDesign:
    """The lambda-independent blocks of the hybrid generator fit on one sample.

    Psi = psi(X) is (n, N), G[i, j] = Dpsi(x_i) f0(x_i | theta_j) is (n, m, N)
    and psidot[i] = Dpsi(x_i) xdot_i is (n, N). The stacked design C has row
    block i = [G[i]', psi_i' (x) I_N] acting on [b; vec R]; the design keeps
    CtC = C'C (symmetrized once), Ct_psidot = C' vec(psidot) and psidot_sq =
    ||psidot||^2. The arrays are read, never written, so pool threads share it.
    """

    basis: MonomialBasis
    Psi: np.ndarray
    G: np.ndarray
    psidot: np.ndarray
    CtC: np.ndarray
    Ct_psidot: np.ndarray
    psidot_sq: float

    def residuals(self, b, R) -> np.ndarray:
        """Rows sum_j b_j G[i, j] + R psi_i - psidot_i."""
        b = np.asarray(b, dtype=float).ravel()
        mix = sum(bj * self.G[:, j] for j, bj in enumerate(b))
        return mix + _matvec(np.asarray(R, dtype=float), self.Psi) - self.psidot


def generator_design(sample: DriftSample, family: Callable, theta_samples,
                     basis: MonomialBasis) -> GeneratorDesign:
    """Evaluate psi, Dpsi and the family velocities on the sample once; drivers
    build one design per sample and sweep lambda_R over it."""
    thetas = np.asarray(theta_samples, dtype=float)
    m, N, n = thetas.shape[0], basis.N, sample.size
    Psi = basis.eval(sample.states)
    J = basis.jacobian(sample.states)
    F = np.stack([family(sample.states, th) for th in thetas], axis=1)
    G = _matvec(J[:, None], F)
    psidot = _matvec(J, sample.drift_velocities)

    C = np.empty((n * N, m + N * N))
    C[:, :m] = G.transpose(0, 2, 1).reshape(n * N, m)
    C[:, m:] = (Psi[:, None, :, None] * np.eye(N)[:, None, :]).reshape(n * N, N * N)
    target = psidot.ravel()
    CtC = C.T @ C
    return GeneratorDesign(basis=basis, Psi=Psi, G=G, psidot=psidot,
                           CtC=0.5 * (CtC + CtC.T), Ct_psidot=C.T @ target,
                           psidot_sq=float(target @ target))


def hybrid_generator_problem(design: GeneratorDesign, lambda_b: float, lambda_R: float
                             ) -> tuple[simplex_qp.SimplexQpProblem, float]:
    """Stacked QP over (b, vec R) for the hybrid generator fit: the design's
    C'C with lambda_b and lambda_R added to the diagonals of the b and R blocks.

    Returns (problem, constant) with the dropped constant term so that
    problem.objective(b, vec R) + constant equals the primal objective.
    """
    if not (np.isfinite(lambda_b) and lambda_b >= 0
            and np.isfinite(lambda_R) and lambda_R > 0):
        raise DomainError("need finite lambda_b >= 0 and lambda_R > 0, got "
                          f"lambda_b={lambda_b}, lambda_R={lambda_R}")
    m, NN = design.G.shape[1], design.basis.N ** 2
    Q = design.CtC.copy()
    Q.flat[::m + NN + 1] += np.repeat([lambda_b, lambda_R], [m, NN])
    problem = simplex_qp.SimplexQpProblem(Q=Q, q_lin=-2.0 * design.Ct_psidot,
                                          m_simplex=m, n_free=NN)
    return problem, design.psidot_sq


def fit_hybrid_generator(design: GeneratorDesign, lambda_b: float, lambda_R: float):
    """Simplex-weighted interpretable drift plus residual generator matrix R.

    Minimizes sum_i ||sum_j b_j G_ij + R psi_i - psi-dot_i||^2
              + lambda_b ||b||^2 + lambda_R ||R||_F^2
    with b on the simplex. Returns (b, R, QpSolution); raises NotConverged
    if the QP stops at its iteration cap.
    """
    problem, _ = hybrid_generator_problem(design, lambda_b, lambda_R)
    sol = simplex_qp.solve(problem)
    if not sol.converged:
        raise NotConverged(f"hybrid generator QP at lambda_R={lambda_R} did not converge in "
                           f"{sol.iterations} iterations (KKT residual {sol.kkt_residual:.3e})")
    N = design.basis.N
    return sol.b, unvec(sol.c_free, N, N), sol


def hybrid_prediction_rmse(design: GeneratorDesign, b, R) -> float:
    """RMS error of predicted psi-dot against exact lifted velocities."""
    return float(np.sqrt(np.mean(np.square(design.residuals(b, R)))))


def default_closure_grid(points_per_axis: int = 33) -> np.ndarray:
    """Deterministic dense lattice on X for closure regressions."""
    axis = np.linspace(-STATE_BOX, STATE_BOX, points_per_axis)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def _closure_targets(field: Callable, basis: MonomialBasis, grid):
    """(grid, Dpsi(x) f(x) on it); a field may return one (2,) vector for all x."""
    grid = default_closure_grid() if grid is None else np.asarray(grid, dtype=float)
    F = np.broadcast_to(np.asarray(field(grid), dtype=float), grid.shape)
    return grid, _matvec(basis.jacobian(grid), F)


def closure_fit(field: Callable, basis: MonomialBasis, grid=None,
                affine: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares closure Dpsi(x) f(x) ~ beta + Gamma psi(x) on a state lattice.

    With affine=False, beta is returned as the zero vector and only Gamma is fit.
    """
    grid, targets = _closure_targets(field, basis, grid)
    N = basis.N
    if grid.shape[0] < N + 1:
        raise DimensionMismatch("closure grid must have at least N + 1 points")
    Psi = basis.eval(grid)
    if affine:
        design = np.hstack([np.ones((grid.shape[0], 1)), Psi])
        sol = solve_least_squares(design, targets)
        return sol[0].copy(), sol[1:].T
    sol = solve_least_squares(Psi, targets)
    return np.zeros(N), sol.T


_BLOCKS = ("weights", "residual", "closure_A", "input_beta", "input_gamma")


@dataclass(frozen=True)
class KoopmanHybridModel:
    """Bilinear lifted model zdot = (sum_j b_j A_j + R) z + u (beta + Gamma z)
    with one scalar input u."""

    basis: MonomialBasis
    weights: np.ndarray      # (m,)
    residual: np.ndarray     # (N, N)
    closure_A: np.ndarray    # (m, N, N)
    input_beta: np.ndarray   # (N,)
    input_gamma: np.ndarray  # (N, N)
    theta_samples: np.ndarray = None

    def __post_init__(self):
        N, m = self.basis.N, np.size(self.weights)
        for name, shape in zip(_BLOCKS, ((m,), (N, N), (m, N, N), (N,), (N, N))):
            block = np.ascontiguousarray(getattr(self, name), dtype=float)
            if block.shape != shape:
                raise DimensionMismatch(f"{name} has shape {block.shape}, expected {shape}")
            object.__setattr__(self, name, block)
        if self.theta_samples is not None:
            object.__setattr__(self, "theta_samples",
                               np.asarray(self.theta_samples, dtype=float))

    @cached_property
    def drift_matrix(self) -> np.ndarray:
        return np.tensordot(self.weights, self.closure_A, axes=1) + self.residual

    def rhs(self, z, u: float) -> np.ndarray:
        return self.drift_matrix @ z + u * (self.input_beta + self.input_gamma @ z)

    def to_json(self, **meta) -> str:
        """The model's blocks as JSON, after the extra keys in `meta`."""
        doc = {**meta, "q": self.basis.q}
        for name in _BLOCKS + ("theta_samples",):
            if getattr(self, name) is not None:
                doc[name] = getattr(self, name).tolist()
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "KoopmanHybridModel":
        """Inverse of to_json; the extra keys are not kept. A malformed document
        raises MalformedModel, blocks of the wrong shape DimensionMismatch."""
        try:
            doc = json.loads(text)
            return cls(MonomialBasis(q=int(doc["q"])), *(doc[name] for name in _BLOCKS),
                       theta_samples=doc.get("theta_samples"))
        except (ValueError, KeyError, TypeError) as e:
            raise MalformedModel(f"not a KoopmanHybridModel document: {e!r}") from e

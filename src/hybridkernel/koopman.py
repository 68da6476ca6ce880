"""Continuous-time Koopman machinery for the CSTR case study: monomial basis,
lifted velocities, hybrid generator identification over a simplex of
parameterized drifts, affine closures, and the bilinear lifted model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import dropwhile
from typing import Callable

import numpy as np
from numpy.random import default_rng

from . import simplex_qp
from .errors import DimensionMismatch, DomainError, MalformedModel
from .linalg import solve_least_squares, solve_spd

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

    def eval(self, x) -> np.ndarray:
        """psi at states of shape (..., 2), as an (..., N) array.

        Squares are x1 * x1 and higher powers np.power, numpy's SIMD pow on
        arrays, which differs from libm's (Python's ``**``) in the last bit;
        every fitted model depends on these bits.
        """
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        x1k = [1.0, x1, x1 * x1] + [np.power(x1, k) for k in range(3, self.q + 1)]
        return np.stack([x1k[i] * x2 if j else x1k[i] for i, j in self.exponents], axis=-1)

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

    def quadratic_coeffs(self, M, v=None) -> tuple:
        """psi(x)' M psi(x) + v' psi(x) as a polynomial for polyval: of degree
        2q in x1 and 2 in x2, as (c0, c1, c2) per power of x1, highest first,
        where c_j multiplies x2^j. Python floats: formed once, read per state."""
        e, f = np.array(self.exponents).T
        C = np.zeros((3, 2 * self.q + 1))
        np.add.at(C, (f[:, None] + f, e[:, None] + e), np.asarray(M, dtype=float))
        if v is not None:
            np.add.at(C, (f, e), np.asarray(v, dtype=float))
        return tuple(map(tuple, C[:, ::-1].T.tolist()))

    @cached_property
    def sq_norm_gradient_coeffs(self) -> tuple:
        """dV/dx1 and dV/dx2 of V = ||psi||^2 as polyval polynomials, from
        quadratic_coeffs(I) by the power rule, leading zero rows dropped."""
        C = self.quadratic_coeffs(np.eye(self.N))
        d1 = [tuple(p * c for c in row) for p, row in zip(range(2 * self.q, 0, -1), C)]
        d2 = [(c1, 2.0 * c2, 0.0) for _, c1, c2 in C]
        return tuple(tuple(dropwhile(lambda row: not any(row), d)) for d in (d1, d2))


def polyval(coeffs, x1, x2):
    """The quadratic_coeffs polynomial at (x1, x2) by Horner's rule in x1. It
    uses only + and *, so floats and coordinate arrays give the same bits per
    state."""
    acc = 0.0
    for c0, c1, c2 in coeffs:
        acc = acc * x1 + (c0 + x2 * (c1 + x2 * c2))
    return acc


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


def cstr_fields(x1, x2) -> tuple:
    """The CSTR's drift f0_true (fractional kinetics, steady state at the
    origin) and known input channel f1 (throughput convection) at x = (x1, x2),
    flat: (f0_1, f0_2, f1_1, f1_2). One formula with + - * / only, so a state
    of floats and coordinate arrays get the same bits per state. On floats it
    raises DomainError at 3 + 2 x1 = 0; on arrays cstr_f0_true and cstr_f1 do.
    """
    try:
        rate = 9.0 * (1.0 + x1) / (4.0 * (3.0 + 2.0 * x1))
    except ZeroDivisionError as e:
        raise DomainError("drift undefined at 3 + 2 x1 = 0") from e
    f1_1 = (3.0 - x1) / 4.0
    return f1_1 - rate, -3.0 * (1.0 + x2) / 4.0 + rate, f1_1, -(1.0 + x2) / 4.0


def _on_states(x, k: int) -> np.ndarray:
    """Field k (0: f0, 1: f1) at states of shape (..., 2), as an (..., 2) array."""
    x = np.asarray(x, dtype=float)
    if np.count_nonzero(3.0 + 2.0 * x[..., 0] == 0.0):
        raise DomainError("drift undefined at 3 + 2 x1 = 0")
    out = np.empty(x.shape)
    out[..., 0], out[..., 1] = cstr_fields(x[..., 0], x[..., 1])[2 * k:2 * k + 2]
    return out


def cstr_f0_true(x) -> np.ndarray:
    """CSTR drift at (..., 2) states."""
    return _on_states(x, 0)


def cstr_f1(x) -> np.ndarray:
    """CSTR input channel at (..., 2) states."""
    return _on_states(x, 1)


def cstr_f0_family(x, thetas) -> np.ndarray:
    """Polynomial drift family f0(x | theta) of every row of an (m, 2) array of
    thetas in [0, 1]^2, at states of shape (..., 2), as an (..., m, 2) array."""
    x, t = np.asarray(x, dtype=float), np.asarray(thetas, dtype=float)
    x1, x2 = x[..., 0, None], x[..., 1, None]
    kin = t[:, 0] * x1 + t[:, 1] * x1 * x1
    return np.stack([-x1 / 4.0 - kin, -3.0 * x2 / 4.0 + kin], axis=-1)


def sample_states(n: int, seed: int) -> np.ndarray:
    """n states uniform on X, deterministic per seed."""
    rng = default_rng(seed)
    return rng.uniform(-STATE_BOX, STATE_BOX, size=(n, 2))


def make_drift_sample(n: int, seed: int, field: Callable = cstr_f0_true) -> DriftSample:
    states = sample_states(n, seed)
    return DriftSample(states=states, drift_velocities=field(states))


@dataclass(frozen=True)
class GeneratorDesign:
    """The lambda-independent blocks of the hybrid generator fit on one sample.

    Psi = psi(X) is (n, N), G[i, j] = Dpsi(x_i) f0(x_i | theta_j) is (n, m, N)
    and psidot[i] = Dpsi(x_i) xdot_i is (n, N). Of the (n, N) blocks
    Z_j = G[:, j] (j < m) and Z_m = psidot the fit reads only the inner
    products ZtZ[j, k] = <Z_j, Z_k>, PtZ = Psi'[Z_0, ..., Z_m] (N x (m + 1) N)
    and PtP = Psi'Psi. The arrays are read, never written.
    """

    basis: MonomialBasis
    Psi: np.ndarray
    G: np.ndarray
    psidot: np.ndarray
    PtP: np.ndarray
    PtZ: np.ndarray
    ZtZ: np.ndarray

    def residuals(self, b, R) -> np.ndarray:
        """Rows sum_j b_j G[i, j] + R psi_i - psidot_i."""
        b = np.asarray(b, dtype=float).ravel()
        mix = sum(bj * self.G[:, j] for j, bj in enumerate(b))
        return mix + _matvec(np.asarray(R, dtype=float), self.Psi) - self.psidot


def generator_design(sample: DriftSample, family: Callable, theta_samples,
                     basis: MonomialBasis) -> GeneratorDesign:
    """Evaluate psi, Dpsi and the family velocities on the sample once; drivers
    build one design per sample and sweep lambda_R over it. family(X, thetas)
    returns every member's velocities at the (n, 2) states as (n, m, 2)."""
    m, N, n = len(theta_samples), basis.N, sample.size
    Psi = basis.eval(sample.states)
    J = basis.jacobian(sample.states)
    G = _matvec(J[:, None], family(sample.states, theta_samples))
    psidot = _matvec(J, sample.drift_velocities)
    Z = np.concatenate([G, psidot[:, None]], axis=1)
    Zj = Z.transpose(1, 0, 2).reshape(m + 1, n * N)
    return GeneratorDesign(basis=basis, Psi=Psi, G=G, psidot=psidot, PtP=Psi.T @ Psi,
                           PtZ=Psi.T @ Z.reshape(n, (m + 1) * N), ZtZ=Zj @ Zj.T)


def hybrid_generator_problem(design: GeneratorDesign, lambda_b: float, lambda_R: float
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hybrid generator fit as a simplex QP in b alone: (S, s, X).

    For fixed b the best R solves the ridge problem M R' = E - sum_j b_j H_j
    with M = Psi'Psi + lambda_R I, H_j = Psi'Z_j and E = H_m = Psi'psidot:
    in the stacked design over (b, vec R) the R block's Gram matrix is
    (Psi'Psi) (x) I (Van Loan 2000, "The ubiquitous Kronecker product"), so
    one N x N solve X = M^-1 PtZ, with the blocks X_j = M^-1 H_j, eliminates
    R. With K[j, k] = ZtZ[j, k] - <H_j, X_k>, S = K[:m, :m] + lambda_b I and
    s = -2 K[:m, m]; b'Sb + s'b + K[m, m] is the primal objective at
    (b, R(b)). X is returned as (N, m + 1, N), X_j = X[:, j], so that
    R(b)' = X_m - sum_j b_j X_j.
    """
    if not (np.isfinite(lambda_b) and lambda_b >= 0
            and np.isfinite(lambda_R) and lambda_R > 0):
        raise DomainError("need finite lambda_b >= 0 and lambda_R > 0, got "
                          f"lambda_b={lambda_b}, lambda_R={lambda_R}")
    m, N = design.G.shape[1], design.basis.N
    M = design.PtP.copy()
    M.flat[::N + 1] += lambda_R
    H = design.PtZ.reshape(N, m + 1, N)
    X = solve_spd(M, design.PtZ).reshape(N, m + 1, N)
    K = design.ZtZ - np.tensordot(H, X, axes=([0, 2], [0, 2]))
    return K[:m, :m] + lambda_b * np.eye(m), -2.0 * K[:m, m], X


def fit_hybrid_generator(design: GeneratorDesign, lambda_b: float, lambda_R: float):
    """Simplex-weighted interpretable drift plus residual generator matrix R.

    Minimizes sum_i ||sum_j b_j G_ij + R psi_i - psi-dot_i||^2
              + lambda_b ||b||^2 + lambda_R ||R||_F^2
    with b on the simplex. Returns (b, R, QpSolution); raises NotConverged
    if the QP's active-set method reaches its step cap.
    """
    S, s, X = hybrid_generator_problem(design, lambda_b, lambda_R)
    sol = simplex_qp.solve(S, s)
    return sol.b, (np.append(-sol.b, 1.0) @ X).T, sol


def hybrid_prediction_rmse(design: GeneratorDesign, b, R) -> float:
    """RMS error of predicted psi-dot against exact lifted velocities."""
    return float(np.sqrt(np.mean(np.square(design.residuals(b, R)))))


def default_closure_grid(points_per_axis: int = 33) -> np.ndarray:
    """Deterministic dense lattice on X for closure regressions."""
    axis = np.linspace(-STATE_BOX, STATE_BOX, points_per_axis)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([g1.ravel(), g2.ravel()])


def closure_fit(field: Callable, basis: MonomialBasis, grid=None,
                affine: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares closure Dpsi(x) f(x) ~ beta + Gamma psi(x) on a state
    lattice, the default one if grid is None.

    field maps the (n, 2) lattice to (n, 2) velocities, or to (n, m, 2) for m
    fields at once, which one solve fits: beta is then (m, N) and Gamma
    (m, N, N). A field may return one (2,) vector for all x. With
    affine=False, beta is returned as zeros and only Gamma is fit.
    """
    grid = default_closure_grid() if grid is None else np.asarray(grid, dtype=float)
    n, N = grid.shape[0], basis.N
    if n < N + 1:
        raise DimensionMismatch("closure grid must have at least N + 1 points")
    F = np.asarray(field(grid), dtype=float)
    if F.ndim == 1:
        F = np.broadcast_to(F, grid.shape)
    targets = _matvec(basis.jacobian(grid).reshape((n,) + (1,) * (F.ndim - 2) + (N, 2)), F)
    design = basis.eval(grid)
    if affine:
        design = np.hstack([np.ones((n, 1)), design])
    sol = solve_least_squares(design, targets.reshape(n, -1)).reshape(
        (design.shape[1],) + targets.shape[1:])
    beta = sol[0].copy() if affine else np.zeros(targets.shape[1:])
    return beta, np.moveaxis(sol[int(affine):], 0, -1)


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
            thetas = np.asarray(self.theta_samples, dtype=float)
            if thetas.shape != (m, 2):
                raise DimensionMismatch(f"theta_samples has shape {thetas.shape}, "
                                        f"expected {(m, 2)}")
            object.__setattr__(self, "theta_samples", thetas)

    @cached_property
    def drift_matrix(self) -> np.ndarray:
        return np.tensordot(self.weights, self.closure_A, axes=1) + self.residual

    @cached_property
    def clf_rate_coeffs(self) -> tuple:
        """quadratic_coeffs of a(x) = 2 psi' A psi and b(x) = 2 psi'(beta + Gamma psi),
        A the drift matrix: dV/dt = a + u b along the model, for V = ||psi||^2."""
        return (self.basis.quadratic_coeffs(2.0 * self.drift_matrix),
                self.basis.quadratic_coeffs(2.0 * self.input_gamma, 2.0 * self.input_beta))

    def to_json(self, **meta) -> str:
        """The model's blocks as JSON, after the extra keys in `meta`."""
        doc = {**meta, "q": self.basis.q}
        for name in _BLOCKS + ("theta_samples",):
            if getattr(self, name) is not None:
                doc[name] = getattr(self, name).tolist()
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "KoopmanHybridModel":
        """Inverse of to_json; the extra keys are not kept. A malformed document,
        a non-finite entry or a q that is not an integer >= 1 raises
        MalformedModel, blocks of the wrong shape DimensionMismatch."""
        try:
            doc = json.loads(text)
            q = doc["q"]
            names = _BLOCKS + (("theta_samples",) if doc.get("theta_samples") is not None
                               else ())
            blocks = {name: np.asarray(doc[name], dtype=float) for name in names}
        except (ValueError, KeyError, TypeError) as e:
            raise MalformedModel(f"not a KoopmanHybridModel document: {e!r}") from e
        if isinstance(q, bool) or not isinstance(q, int) or q < 1:
            raise MalformedModel(f"q must be an integer >= 1, got {q!r}")
        if not all(np.isfinite(block).all() for block in blocks.values()):
            raise MalformedModel("KoopmanHybridModel document holds a non-finite entry")
        return cls(MonomialBasis(q=q), **blocks)

"""Deterministic experiment drivers behind the CLI: dataset generation,
regularization sweeps for the three static settings, the Koopman sweep, and
the closed-loop control comparison. All functions are pure given their seeds.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from . import control, hybrid_static, koopman, thermo_vle
from .errors import ConfigError
from .hybrid_static import Dataset
from .kernels import KernelSpec, gram

DEFAULT_LAMBDA_GRID = tuple(np.logspace(-3, 2, 13))
DEFAULT_LAMBDA_R_GRID = tuple(np.logspace(-4, 2, 7))
DEFAULT_GAMMA_X = 100.0
DEFAULT_GAMMA_THETA = 10.0
DEFAULT_LAMBDA_THETA = 1e-6
DEFAULT_LAMBDA_B = 1e-8
THREADS_ENV = "HYBRIDKERNEL_THREADS"


def worker_count() -> int:
    cap = os.environ.get(THREADS_ENV, "").strip()
    if not cap:
        return min(4, os.cpu_count() or 1)
    if not cap.isdecimal() or int(cap) < 1:
        raise ConfigError(f"{THREADS_ENV}={cap!r} is not a positive integer")
    return int(cap)


def _map_grid(fn, grid):
    workers = worker_count()
    if workers == 1 or len(grid) == 1:
        return [fn(g) for g in grid]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, grid))


@lru_cache(maxsize=None)
def _vle_point(x: float) -> thermo_vle.VlePoint:
    """The bubble point at x, at 1 atm; the datasets and the features share
    this cache, so a sweep solves each composition once."""
    T, y = thermo_vle.bubble_point(x)
    return thermo_vle.VlePoint(x=x, y=y, T=T)


@lru_cache(maxsize=None)
def vle_points(n: int, seed: int) -> tuple:
    """The VLE points of one dataset; cached, so the CLI writes the points a
    sweep fitted without solving their bubble points again."""
    return tuple(_vle_point(float(x)) for x in thermo_vle.vle_compositions(n, seed))


def xy_dataset(n: int, seed: int) -> Dataset:
    """(x, y) pairs from the VLE ground truth."""
    pts = vle_points(n, seed)
    return Dataset(inputs=np.array([p.x for p in pts]),
                   targets=np.array([p.y for p in pts]))


def gex_dataset(n: int, seed: int) -> Dataset:
    """(x, Gibbs-energy target) pairs converted from simulated T-x-y data."""
    pts = vle_points(n, seed)
    return Dataset(inputs=np.array([p.x for p in pts]),
                   targets=np.array([thermo_vle.excess_gibbs_from_txy(p) for p in pts]))


def relative_volatility_reference(x):
    return thermo_vle.rel_volatility_model(thermo_vle.REL_VOLATILITY_ALPHA, x)


def gex_reference(x):
    """Relative-volatility reference pushed through the Gibbs-energy conversion.

    y is replaced by the reference prediction; T comes from the ground-truth
    bubble point at x (the temperature is measured data in this setting).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        y_ref = thermo_vle.rel_volatility_model(thermo_vle.REL_VOLATILITY_ALPHA, float(xi))
        T = _vle_point(float(xi)).T
        out[i] = thermo_vle.excess_gibbs_from_txy(
            thermo_vle.VlePoint(x=float(xi), y=y_ref, T=T))
    return float(out[0]) if np.ndim(x) == 0 else out


def wilson_family(x, theta):
    """Wilson Gibbs-energy model h(x | theta) evaluated at the bubble temperature."""
    w = thermo_vle.WilsonParams(theta=(float(theta[0]), float(theta[1])))
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([thermo_vle.wilson_gex(w, float(xi),
                                          _vle_point(float(xi)).T + thermo_vle.CELSIUS_TO_KELVIN)
                    for xi in xs])
    return float(out[0]) if np.ndim(x) == 0 else out


def sample_thetas(m: int, seed: int, dim: int = 2) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(m, dim))


def run_setting1(n: int = 50, seed: int = 0, lambda_grid=DEFAULT_LAMBDA_GRID,
                 gamma: float = DEFAULT_GAMMA_X) -> list[dict]:
    """KRR around the relative-volatility reference on (x, y) data."""
    train = hybrid_static.design(xy_dataset(n, seed), relative_volatility_reference,
                                 KernelSpec(gamma=gamma))
    val = train.at(xy_dataset(n, seed + 1))

    def one(lam):
        model = hybrid_static.fit_reference_krr(train, lam)
        return {"lambda": float(lam),
                "train_rmse": hybrid_static.rmse(model, train),
                "val_rmse": hybrid_static.rmse(model, val)}

    return _map_grid(one, list(lambda_grid))


def run_setting2(n: int = 50, seed: int = 0, lambda_grid=DEFAULT_LAMBDA_GRID,
                 gamma: float = DEFAULT_GAMMA_X,
                 lambda_theta: float = DEFAULT_LAMBDA_THETA) -> dict:
    """Reference hybrid vs Margules-subspace hybrid on Gibbs-energy data.

    Each "margules" row carries its fitted model under "model".
    """
    ref_train = hybrid_static.design(gex_dataset(n, seed), gex_reference,
                                     KernelSpec(gamma=gamma))
    ref_val = ref_train.at(gex_dataset(n, seed + 1))
    sub_train = ref_train.with_features(thermo_vle.margules_features, joint=True)
    sub_val = ref_val.with_features(thermo_vle.margules_features)

    def one(lam):
        ref = hybrid_static.fit_reference_krr(ref_train, lam)
        sub = hybrid_static.fit_subspace(sub_train, lambda_theta=lambda_theta, lambda_r=lam)
        return (
            {"lambda": float(lam),
             "train_rmse": hybrid_static.rmse(ref, ref_train),
             "val_rmse": hybrid_static.rmse(ref, ref_val)},
            {"lambda": float(lam),
             "train_rmse": hybrid_static.rmse(sub, sub_train),
             "val_rmse": hybrid_static.rmse(sub, sub_val),
             "theta_star": ";".join(repr(float(t)) for t in sub.weights),
             "model": sub},
        )

    rows = _map_grid(one, list(lambda_grid))
    return {"reference": [r[0] for r in rows], "margules": [r[1] for r in rows]}


def run_setting3(n: int = 50, seed: int = 0, m: int = 25,
                 lambda_grid=DEFAULT_LAMBDA_GRID, gamma_x: float = DEFAULT_GAMMA_X,
                 gamma_theta: float = DEFAULT_GAMMA_THETA,
                 lambda_omega: float = 0.0, theta_seed: int = None) -> list[dict]:
    """Wilson-manifold mixture fit on Gibbs-energy data."""
    if theta_seed is None:
        theta_seed = seed + 1000
    thetas = sample_thetas(m, theta_seed)
    train = hybrid_static.design(gex_dataset(n, seed),
                                 hybrid_static.family_features(wilson_family, thetas),
                                 KernelSpec(gamma=gamma_x), joint=True)
    val = train.at(gex_dataset(n, seed + 1))
    theta_gram = gram(KernelSpec(gamma=gamma_theta), thetas)

    def one(lam):
        model = hybrid_static.fit_mixture(train, theta_gram, lambda_omega=lambda_omega,
                                          lambda_r=lam)
        theta_star = hybrid_static.effective_parameter(model.weights, thetas)
        return {"lambda": float(lam),
                "train_rmse": hybrid_static.rmse(model, train),
                "val_rmse": hybrid_static.rmse(model, val),
                "theta_star": ";".join(repr(float(t)) for t in theta_star),
                "weights": model.weights,
                "theta_samples": thetas,
                "model": model}

    return _map_grid(one, list(lambda_grid))


def cstr_design(n: int, seed: int, thetas, basis: koopman.MonomialBasis
                ) -> koopman.GeneratorDesign:
    """Hybrid generator design on n CSTR drift states drawn at `seed`."""
    f0_true, _, family = koopman.cstr_fields()
    return koopman.generator_design(koopman.make_drift_sample(n, seed, f0_true), family,
                                    thetas, basis)


def fit_closures(thetas, basis: koopman.MonomialBasis, family, f1) -> tuple:
    """The lambda-independent closures: Gamma_j of each family member f0(. | theta_j),
    and the affine (beta, Gamma) of the input channel f1."""
    drift = [koopman.closure_fit(lambda x, th=th: family(x, th), basis)[1]
             for th in np.asarray(thetas)]
    return drift, [koopman.closure_fit(f1, basis, affine=True)]


def build_hybrid_model(b, R, thetas, basis: koopman.MonomialBasis,
                       closures: tuple) -> koopman.KoopmanHybridModel:
    """Assemble the bilinear lifted model from fitted (b, R) and fit_closures output."""
    drift, inputs = closures
    return koopman.assemble_bilinear(b, R, drift, inputs, basis, theta_samples=thetas)


def run_koopman(n: int = 200, seed: int = 0, m: int = 25,
                lambda_grid=DEFAULT_LAMBDA_R_GRID, lambda_b: float = DEFAULT_LAMBDA_B,
                q: int = 3, theta_seed: int = None) -> list[dict]:
    """Hybrid generator identification sweep over lambda_R; each row carries
    the fitted "b" and "R" and the sweep's "basis" and "theta_samples", from
    which koopman_models assembles the bilinear models."""
    basis = koopman.MonomialBasis(q=q)
    thetas = sample_thetas(m, seed + 1000 if theta_seed is None else theta_seed)
    train, val = (cstr_design(n, s, thetas, basis) for s in (seed, seed + 1))

    def one(lam):
        b, R, _ = koopman.fit_hybrid_generator(train, lambda_b=lambda_b, lambda_R=lam)
        return {"lambda_R": float(lam),
                "train_rmse": koopman.hybrid_prediction_rmse(train, b, R),
                "val_rmse": koopman.hybrid_prediction_rmse(val, b, R),
                "frob_R": float(np.linalg.norm(R, "fro")),
                "b": b, "R": R, "basis": basis, "theta_samples": thetas}

    return _map_grid(one, list(lambda_grid))


def koopman_models(rows: list[dict]) -> list[koopman.KoopmanHybridModel]:
    """The bilinear model of each run_koopman row; the closures are fit once."""
    basis, thetas = rows[0]["basis"], rows[0]["theta_samples"]
    _, f1, family = koopman.cstr_fields()
    closures = fit_closures(thetas, basis, family, f1)
    return [build_hybrid_model(r["b"], r["R"], thetas, basis, closures) for r in rows]


def run_control(seed: int = 0, n: int = 200, m: int = 25,
                lambda_grid=DEFAULT_LAMBDA_R_GRID, lambda_b: float = DEFAULT_LAMBDA_B,
                q: int = 3, n_states: int = 5, dt: float = 0.01,
                horizon: float = 10.0, state_seed: int = None,
                keep_trajectories: bool = False) -> list[dict]:
    """Closed-loop comparison: ground-truth CLF controller vs hybrid-model one.

    Both controllers drive the true plant (certainty equivalence); reported per
    (lambda_R, initial state): max state deviation and whether V decreased
    monotonically (1e-6 per-step tolerance) along both trajectories.
    """
    if state_seed is None:
        state_seed = seed + 2000
    basis = koopman.MonomialBasis(q=q)
    thetas = sample_thetas(m, seed + 1000)
    _, f1, family = koopman.cstr_fields()
    train = cstr_design(n, seed, thetas, basis)
    x0s = koopman.sample_states(n_states, state_seed)
    closures = fit_closures(thetas, basis, family, f1)

    def v_monotone(traj):
        return bool(np.all(np.diff(control.clf_value(basis, traj.states)) <= 1e-6))

    # the ground-truth loop does not depend on lambda_R
    truth_ctrl = control.make_truth_controller(basis, koopman.cstr_f0_true_at,
                                               koopman.cstr_f1_at)
    truths = [control.simulate(koopman.cstr_plant, truth_ctrl, x0, dt, horizon)
              for x0 in x0s]
    truth_monotone = [v_monotone(t) for t in truths]

    rows = []
    for lam in lambda_grid:
        b, R, _ = koopman.fit_hybrid_generator(train, lambda_b=lambda_b, lambda_R=lam)
        model_ctrl = control.make_model_controller(
            build_hybrid_model(b, R, thetas, basis, closures))
        for i, (x0, t_truth) in enumerate(zip(x0s, truths)):
            t_model = control.simulate(koopman.cstr_plant, model_ctrl, x0, dt, horizon)
            row = {
                "lambda_R": float(lam),
                "x0_index": i,
                "max_deviation": control.compare_trajectories(t_truth, t_model),
                "v_monotone_truth": truth_monotone[i],
                "v_monotone_model": v_monotone(t_model),
            }
            if keep_trajectories:
                row["trajectory_truth"] = t_truth
                row["trajectory_model"] = t_model
            rows.append(row)
    return rows

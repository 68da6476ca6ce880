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
from .hybrid_static import Dataset
from .kernels import KernelSpec, gram

DEFAULT_LAMBDA_GRID = tuple(np.logspace(-3, 2, 13))
DEFAULT_LAMBDA_R_GRID = tuple(np.logspace(-4, 2, 7))
DEFAULT_GAMMA_X = 100.0
DEFAULT_GAMMA_THETA = 10.0
DEFAULT_LAMBDA_THETA = 1e-6
DEFAULT_LAMBDA_OMEGA = 0.0
DEFAULT_LAMBDA_B = 1e-8
DEFAULT_Q = 3
DEFAULT_DT = 0.01


def worker_count() -> int:
    """Threads of the lambda pool: min(4, cores). A function only because the
    benchmark (perfbench/sweep.py and its layer test) calls it."""
    return min(4, os.cpu_count() or 1)


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


def sample_thetas(m: int, seed: int) -> np.ndarray:
    """m parameter samples uniform on [0, 1]^2, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(m, 2))


def seeds(experiment: str, seed: int) -> dict:
    """The seeds a run of `experiment` at `seed` draws from, named as
    manifest.json records them: data, validation, theta samples (setting3,
    koopman, control) and initial states (control)."""
    out = {"data_seed": seed, "validation_seed": seed + 1}
    if experiment in ("setting3", "koopman", "control"):
        out["theta_seed"] = seed + 1000
    if experiment == "control":
        out["state_seed"] = seed + 2000
    return out


def run_setting1(n: int = 50, seed: int = 0, lambda_grid=DEFAULT_LAMBDA_GRID) -> list[dict]:
    """KRR around the relative-volatility reference on (x, y) data."""
    train = hybrid_static.design(xy_dataset(n, seed), relative_volatility_reference,
                                 KernelSpec(gamma=DEFAULT_GAMMA_X))
    val = train.at(xy_dataset(n, seeds("setting1", seed)["validation_seed"]))

    def one(lam):
        model = hybrid_static.fit_reference_krr(train, lam)
        return {"lambda": float(lam),
                "train_rmse": hybrid_static.rmse(model, train),
                "val_rmse": hybrid_static.rmse(model, val)}

    return _map_grid(one, list(lambda_grid))


def run_setting2(n: int = 50, seed: int = 0, lambda_grid=DEFAULT_LAMBDA_GRID) -> dict:
    """Reference hybrid vs Margules-subspace hybrid on Gibbs-energy data.

    Each "margules" row carries its fitted model under "model".
    """
    ref_train = hybrid_static.design(gex_dataset(n, seed), gex_reference,
                                     KernelSpec(gamma=DEFAULT_GAMMA_X))
    ref_val = ref_train.at(gex_dataset(n, seeds("setting2", seed)["validation_seed"]))
    sub_train = ref_train.with_features(thermo_vle.margules_features, joint=True)
    sub_val = ref_val.with_features(thermo_vle.margules_features)

    def one(lam):
        ref = hybrid_static.fit_reference_krr(ref_train, lam)
        sub = hybrid_static.fit_subspace(sub_train, lambda_theta=DEFAULT_LAMBDA_THETA,
                                         lambda_r=lam)
        return (
            {"lambda": float(lam),
             "train_rmse": hybrid_static.rmse(ref, ref_train),
             "val_rmse": hybrid_static.rmse(ref, ref_val)},
            {"lambda": float(lam),
             "train_rmse": hybrid_static.rmse(sub, sub_train),
             "val_rmse": hybrid_static.rmse(sub, sub_val),
             "theta_star": sub.weights,
             "model": sub},
        )

    rows = _map_grid(one, list(lambda_grid))
    return {"reference": [r[0] for r in rows], "margules": [r[1] for r in rows]}


def run_setting3(n: int = 50, seed: int = 0, m: int = 25,
                 lambda_grid=DEFAULT_LAMBDA_GRID) -> list[dict]:
    """Wilson-manifold mixture fit on Gibbs-energy data."""
    run_seeds = seeds("setting3", seed)
    thetas = sample_thetas(m, run_seeds["theta_seed"])
    train = hybrid_static.design(gex_dataset(n, seed),
                                 hybrid_static.family_features(wilson_family, thetas),
                                 KernelSpec(gamma=DEFAULT_GAMMA_X), joint=True)
    val = train.at(gex_dataset(n, run_seeds["validation_seed"]))
    theta_gram = gram(KernelSpec(gamma=DEFAULT_GAMMA_THETA), thetas)

    def one(lam):
        model = hybrid_static.fit_mixture(train, theta_gram,
                                          lambda_omega=DEFAULT_LAMBDA_OMEGA, lambda_r=lam)
        return {"lambda": float(lam),
                "train_rmse": hybrid_static.rmse(model, train),
                "val_rmse": hybrid_static.rmse(model, val),
                "theta_star": hybrid_static.effective_parameter(model.weights, thetas),
                "weights": model.weights,
                "theta_samples": thetas,
                "model": model}

    return _map_grid(one, list(lambda_grid))


def cstr_design(n: int, seed: int, thetas, basis: koopman.MonomialBasis
                ) -> koopman.GeneratorDesign:
    """Hybrid generator design on n CSTR drift states drawn at `seed`."""
    return koopman.generator_design(koopman.make_drift_sample(n, seed),
                                    koopman.cstr_f0_family, thetas, basis)


def fit_closures(thetas, basis: koopman.MonomialBasis) -> tuple:
    """The lambda-independent closures (A, beta, Gamma): A[j] is the Gamma of
    family member f0(. | theta_j), (beta, Gamma) the affine one of the input
    channel f1."""
    A = np.stack([koopman.closure_fit(lambda x, th=th: koopman.cstr_f0_family(x, th), basis)[1]
                  for th in np.asarray(thetas)])
    return (A, *koopman.closure_fit(koopman.cstr_f1, basis, affine=True))


def build_hybrid_model(b, R, thetas, basis: koopman.MonomialBasis,
                       closures: tuple) -> koopman.KoopmanHybridModel:
    """The bilinear lifted model of fitted (b, R) and the fit_closures output."""
    return koopman.KoopmanHybridModel(basis, b, R, *closures, theta_samples=thetas)


def run_koopman(n: int = 200, seed: int = 0, m: int = 25,
                lambda_grid=DEFAULT_LAMBDA_R_GRID) -> list[dict]:
    """Hybrid generator identification sweep over lambda_R; each row carries
    the fitted "b" and "R" and the sweep's "basis" and "theta_samples", from
    which koopman_models assembles the bilinear models."""
    run_seeds = seeds("koopman", seed)
    basis = koopman.MonomialBasis(q=DEFAULT_Q)
    thetas = sample_thetas(m, run_seeds["theta_seed"])
    train, val = (cstr_design(n, s, thetas, basis)
                  for s in (seed, run_seeds["validation_seed"]))

    def one(lam):
        b, R, _ = koopman.fit_hybrid_generator(train, lambda_b=DEFAULT_LAMBDA_B,
                                               lambda_R=lam)
        return {"lambda_R": float(lam),
                "train_rmse": koopman.hybrid_prediction_rmse(train, b, R),
                "val_rmse": koopman.hybrid_prediction_rmse(val, b, R),
                "frob_R": float(np.linalg.norm(R, "fro")),
                "b": b, "R": R, "basis": basis, "theta_samples": thetas}

    return _map_grid(one, list(lambda_grid))


def koopman_models(rows: list[dict]) -> list[koopman.KoopmanHybridModel]:
    """The bilinear model of each run_koopman row; the closures are fit once."""
    basis, thetas = rows[0]["basis"], rows[0]["theta_samples"]
    closures = fit_closures(thetas, basis)
    return [build_hybrid_model(r["b"], r["R"], thetas, basis, closures) for r in rows]


def run_control(seed: int = 0, n: int = 200, m: int = 25,
                lambda_grid=DEFAULT_LAMBDA_R_GRID, n_states: int = 5,
                horizon: float = 10.0) -> list[dict]:
    """Closed-loop comparison: ground-truth CLF controller vs hybrid-model one.

    Both controllers drive the true plant (certainty equivalence); reported per
    (lambda_R, initial state): max state deviation and whether V decreased
    monotonically (1e-6 per-step tolerance) along both trajectories, with the
    two trajectories under "trajectory_truth" and "trajectory_model".
    """
    run_seeds = seeds("control", seed)
    basis = koopman.MonomialBasis(q=DEFAULT_Q)
    thetas = sample_thetas(m, run_seeds["theta_seed"])
    train = cstr_design(n, seed, thetas, basis)
    x0s = koopman.sample_states(n_states, run_seeds["state_seed"])
    closures = fit_closures(thetas, basis)

    def v_monotone(traj):
        return bool(np.all(np.diff(control.clf_value(basis, traj.states)) <= 1e-6))

    # the ground-truth loop does not depend on lambda_R
    truth_ctrl = control.make_truth_controller(basis, koopman.cstr_f0_true_at,
                                               koopman.cstr_f1_at)
    truths = [control.simulate(koopman.cstr_plant, truth_ctrl, x0, DEFAULT_DT, horizon)
              for x0 in x0s]
    truth_monotone = [v_monotone(t) for t in truths]

    rows = []
    for lam in lambda_grid:
        b, R, _ = koopman.fit_hybrid_generator(train, lambda_b=DEFAULT_LAMBDA_B,
                                               lambda_R=lam)
        model_ctrl = control.make_model_controller(
            build_hybrid_model(b, R, thetas, basis, closures))
        for i, (x0, t_truth) in enumerate(zip(x0s, truths)):
            t_model = control.simulate(koopman.cstr_plant, model_ctrl, x0, DEFAULT_DT,
                                       horizon)
            rows.append({
                "lambda_R": float(lam),
                "x0_index": i,
                "max_deviation": control.compare_trajectories(t_truth, t_model),
                "v_monotone_truth": truth_monotone[i],
                "v_monotone_model": v_monotone(t_model),
                "trajectory_truth": t_truth,
                "trajectory_model": t_model,
            })
    return rows

"""Deterministic experiment drivers behind the CLI: dataset generation,
regularization sweeps for the three static settings, the Koopman sweep, and
the closed-loop control comparison. All functions are pure given their seeds.
"""

from __future__ import annotations

import os
import queue
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial

import numpy as np
from numpy.random import default_rng

from . import control, hybrid_static, koopman, thermo_vle
from .hybrid_static import Dataset
from .kernels import KernelSpec

DEFAULT_LAMBDA_GRID = tuple(np.logspace(-3, 2, 13))
DEFAULT_LAMBDA_R_GRID = tuple(np.logspace(-4, 2, 7))
DEFAULT_GAMMA_X = 100.0
DEFAULT_LAMBDA_THETA = 1e-6
DEFAULT_LAMBDA_B = 1e-8
DEFAULT_Q = 3
DEFAULT_DT = 0.01


def worker_count() -> int:
    """Threads of the lambda pool: min(4, usable CPUs). A function only because
    the benchmark (perfbench/sweep.py and its layer test) calls it."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(4, cpus or 1)


@lru_cache(maxsize=None)
def _vle_point(x: float) -> tuple[float, float]:
    """bubble_point's (T, y) at x; the datasets, the features and the CLI's
    data files share this cache, so a sweep solves each composition once."""
    return thermo_vle.bubble_point(x)


def vle_table(x) -> tuple[np.ndarray, np.ndarray]:
    """The bubble temperatures (degC) and vapor fractions at the compositions
    x, as two arrays of x's shape, read from _vle_point's cache."""
    xs = np.asarray(x, dtype=float)
    table = np.array([_vle_point(xi) for xi in xs.ravel().tolist()]).reshape(-1, 2)
    return tuple(table.T.copy().reshape(2, *xs.shape))


def xy_dataset(n: int, seed: int) -> Dataset:
    """(x, y) pairs from the VLE ground truth."""
    x = thermo_vle.vle_compositions(n, seed)
    return Dataset(inputs=x, targets=vle_table(x)[1])


def gex_dataset(n: int, seed: int) -> Dataset:
    """(x, Gibbs-energy target) pairs converted from simulated T-x-y data."""
    x = thermo_vle.vle_compositions(n, seed)
    T, y = vle_table(x)
    return Dataset(inputs=x, targets=thermo_vle.excess_gibbs_from_txy(x, y, T))


def relative_volatility_reference(x):
    return thermo_vle.rel_volatility_model(thermo_vle.REL_VOLATILITY_ALPHA, x)


def gex_reference(x):
    """Relative-volatility reference pushed through the Gibbs-energy conversion.

    y is replaced by the reference prediction; T comes from the ground-truth
    bubble point at x (the temperature is measured data in this setting).
    """
    return thermo_vle.excess_gibbs_from_txy(x, relative_volatility_reference(x),
                                            vle_table(x)[0])


def wilson_family(x, thetas) -> np.ndarray:
    """The Wilson Gibbs-energy models h(x | theta_j) of every parameter sample
    at the bubble temperature of every x, as an (n, m) array."""
    return thermo_vle.wilson_gex(thetas, x, vle_table(x)[0] + thermo_vle.CELSIUS_TO_KELVIN)


def sample_thetas(m: int, seed: int) -> np.ndarray:
    """m parameter samples uniform on [0, 1]^2, deterministic per seed."""
    rng = default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(m, 2))


def seeds(experiment: str, seed: int) -> dict:
    """The seeds a run of `experiment` at `seed` draws from, named as
    manifest.json records them: data, validation (all but vle-data), theta
    samples (setting3, koopman, control) and initial states (control)."""
    out = {"data_seed": seed}
    if experiment != "vle-data":
        out["validation_seed"] = seed + 1
    if experiment in ("setting3", "koopman", "control"):
        out["theta_seed"] = seed + 1000
    if experiment == "control":
        out["state_seed"] = seed + 2000
    return out


def _rows(grid, models, train, val) -> list[dict]:
    """A static sweep's rows: each lambda with its model's training and
    validation RMSE, each design scored in one rmse call."""
    return [{"lambda": float(lam), "train_rmse": t, "val_rmse": v} for lam, t, v
            in zip(grid, hybrid_static.rmse(models, train), hybrid_static.rmse(models, val))]


def run_setting1(n: int = 50, seed: int = 0, lambda_grid=DEFAULT_LAMBDA_GRID) -> list[dict]:
    """KRR around the relative-volatility reference on (x, y) data."""
    train = hybrid_static.design(xy_dataset(n, seed), relative_volatility_reference,
                                 KernelSpec(gamma=DEFAULT_GAMMA_X))
    val = train.at(xy_dataset(n, seeds("setting1", seed)["validation_seed"]))
    return _rows(lambda_grid, hybrid_static.fit_reference_krr(train, lambda_grid), train, val)


def run_setting2(n: int = 50, seed: int = 0, lambda_grid=DEFAULT_LAMBDA_GRID) -> dict:
    """Reference hybrid vs Margules-subspace hybrid on Gibbs-energy data.

    Each "margules" row carries its fitted model under "model". The reference
    grid is one fit call; then the lambda pool fits the subspace grid in
    joint-matrix buffers this thread allocates, one per worker. The validation
    designs, whose n x n cross-Gram would coexist with the solves, come after.
    """
    ref_train = hybrid_static.design(gex_dataset(n, seed), gex_reference,
                                     KernelSpec(gamma=DEFAULT_GAMMA_X))
    sub_train = ref_train.with_features(thermo_vle.margules_features, joint=True)
    refs = hybrid_static.fit_reference_krr(ref_train, lambda_grid)
    workers, buffers = min(worker_count(), len(lambda_grid)), queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty_like(sub_train.DtD))

    def fit(lam):
        buf = buffers.get()
        try:
            return hybrid_static.fit_subspace(sub_train, lambda_theta=DEFAULT_LAMBDA_THETA,
                                              lambda_r=lam, out=buf)
        finally:
            buffers.put(buf)

    if workers == 1:
        subs = [fit(lam) for lam in lambda_grid]
    else:  # the (n + 2)^2 factorizations release the GIL
        with ThreadPoolExecutor(max_workers=workers) as pool:
            subs = list(pool.map(fit, lambda_grid))
    del buffers  # freed before the cross-Gram is allocated
    ref_val = ref_train.at(gex_dataset(n, seeds("setting2", seed)["validation_seed"]))
    sub_val = ref_val.with_features(thermo_vle.margules_features)
    return {"reference": _rows(lambda_grid, refs, ref_train, ref_val),
            "margules": [{**row, "theta_star": sub.weights, "model": sub} for row, sub
                         in zip(_rows(lambda_grid, subs, sub_train, sub_val), subs)]}


def run_setting3(n: int = 50, seed: int = 0, m: int = 25,
                 lambda_grid=DEFAULT_LAMBDA_GRID) -> list[dict]:
    """Wilson-manifold mixture fit on Gibbs-energy data."""
    run_seeds = seeds("setting3", seed)
    thetas = sample_thetas(m, run_seeds["theta_seed"])
    train = hybrid_static.design(gex_dataset(n, seed), partial(wilson_family, thetas=thetas),
                                 KernelSpec(gamma=DEFAULT_GAMMA_X))
    val = train.at(gex_dataset(n, run_seeds["validation_seed"]))
    models = hybrid_static.fit_mixture(train, lambda_grid)
    return [{**row, "theta_star": hybrid_static.effective_parameter(model.weights, thetas),
             "weights": model.weights, "theta_samples": thetas, "model": model}
            for row, model in zip(_rows(lambda_grid, models, train, val), models)]


def fit_closures(thetas, basis: koopman.MonomialBasis) -> tuple:
    """The lambda-independent closures (A, beta, Gamma): A[j] is the Gamma of
    family member f0(. | theta_j), all m fit by one solve, and (beta, Gamma)
    the affine one of the input channel f1."""
    _, A = koopman.closure_fit(lambda x: koopman.cstr_f0_family(x, thetas), basis)
    return (A, *koopman.closure_fit(koopman.cstr_f1, basis, affine=True))


def build_hybrid_model(b, R, thetas, basis: koopman.MonomialBasis,
                       closures: tuple) -> koopman.KoopmanHybridModel:
    """The bilinear lifted model of fitted (b, R) and the fit_closures output."""
    return koopman.KoopmanHybridModel(basis, b, R, *closures, theta_samples=thetas)


def run_koopman(n: int = 200, seed: int = 0, m: int = 25,
                lambda_grid=DEFAULT_LAMBDA_R_GRID) -> list[dict]:
    """Hybrid generator identification sweep over lambda_R; each row carries its
    bilinear model under "model", built from closures fit once per sweep.

    The grid is fit in a plain loop in the calling thread: each fit is one
    N x N solve and one m x m QP that hold the GIL, so the lambda pool would
    add thread start-up and save nothing."""
    run_seeds = seeds("koopman", seed)
    basis = koopman.MonomialBasis(q=DEFAULT_Q)
    thetas = sample_thetas(m, run_seeds["theta_seed"])
    train, val = (koopman.generator_design(koopman.make_drift_sample(n, s),
                                           koopman.cstr_f0_family, thetas, basis)
                  for s in (seed, run_seeds["validation_seed"]))
    closures = fit_closures(thetas, basis)

    def one(lam):
        b, R, _ = koopman.fit_hybrid_generator(train, lambda_b=DEFAULT_LAMBDA_B,
                                               lambda_R=lam)
        # the scores read R itself: the model's contiguous copy rounds differently
        return {"lambda_R": float(lam),
                "train_rmse": koopman.hybrid_prediction_rmse(train, b, R),
                "val_rmse": koopman.hybrid_prediction_rmse(val, b, R),
                "frob_R": float(np.linalg.norm(R, "fro")),
                "model": build_hybrid_model(b, R, thetas, basis, closures)}

    return [one(lam) for lam in lambda_grid]


def run_control(seed: int = 0, n: int = 200, m: int = 25,
                lambda_grid=DEFAULT_LAMBDA_R_GRID, n_states: int = 5,
                horizon: float = 10.0) -> list[dict]:
    """Closed-loop comparison: ground-truth CLF controller vs each run_koopman model.

    Both controllers drive the true plant (certainty equivalence); reported per
    (lambda_R, initial state): max state deviation and whether V decreased
    monotonically (1e-6 per-step tolerance) along both trajectories, with the
    two trajectories under "trajectory_truth" and "trajectory_model". The truth
    loop does not depend on lambda_R: the rows of one "x0_index" share one
    truth trajectory.
    """
    fits = run_koopman(n, seed, m, lambda_grid)
    basis = fits[0]["model"].basis
    x0s = koopman.sample_states(n_states, seeds("control", seed)["state_seed"])

    def v_monotone(traj):
        return bool(np.all(np.diff(control.clf_value(basis, traj.states)) <= 1e-6))

    # the ground-truth loop does not depend on lambda_R
    truth_ctrl = control.make_truth_controller(basis)
    truths = [control.simulate(koopman.cstr_fields, truth_ctrl, x0, DEFAULT_DT, horizon)
              for x0 in x0s]
    truth_monotone = [v_monotone(t) for t in truths]

    rows = []
    for fit in fits:
        model_ctrl = control.make_model_controller(fit["model"])
        for i, (x0, t_truth) in enumerate(zip(x0s, truths)):
            t_model = control.simulate(koopman.cstr_fields, model_ctrl, x0, DEFAULT_DT,
                                       horizon)
            rows.append({
                "lambda_R": fit["lambda_R"],
                "x0_index": i,
                "max_deviation": control.compare_trajectories(t_truth, t_model),
                "v_monotone_truth": truth_monotone[i],
                "v_monotone_model": v_monotone(t_model),
                "trajectory_truth": t_truth,
                "trajectory_model": t_model,
            })
    return rows

"""The size of the lambda pool, that its threads leave shared designs as
they were, the memory the setting (ii) sweep holds at once, that its rows do
not depend on the number of workers, that only setting (ii)'s subspace fits
start threads, and that each static sweep makes one fit call per family and
one rmse call per design."""

import os
import threading

import numpy as np
import pytest

import oracles
from hybridkernel import experiments, hybrid_static


@pytest.mark.parametrize("usable, cores, workers", [
    ({0, 5}, 64, 2),  # a cpuset narrower than the machine
    ({3}, 8, 1),
    (set(range(16)), 16, 4),
])
def test_worker_count_counts_usable_cpus(monkeypatch, usable, cores, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert hybrid_static.worker_count() == workers


@pytest.mark.parametrize("cores, workers", [(2, 2), (64, 4), (None, 1)])
def test_worker_count_without_affinity_counts_cores(monkeypatch, cores, workers):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert hybrid_static.worker_count() == workers


def array_bytes(design) -> dict:
    """The bytes of each array a design holds: F, K, y and its factor's."""
    arrays = {name: getattr(design, name) for name in ("F", "K", "y")}
    if design.factor is not None:
        arrays.update(factor_W=design.factor.W, factor_mu=design.factor.mu)
    return {name: a.tobytes() for name, a in arrays.items()}


def test_lambda_pool_leaves_the_shared_designs_bit_identical(monkeypatch):
    # the subspace fits factor their joint matrices in place; no such write
    # may reach a block that the pool threads share. Each design is copied as
    # it is built, before the sweep starts
    built = []
    make = hybrid_static._design

    def recording(*args, **kwargs):
        design = make(*args, **kwargs)
        built.append((design, array_bytes(design)))
        return design

    monkeypatch.setattr(hybrid_static, "_design", recording)
    monkeypatch.setattr(hybrid_static, "worker_count", lambda: 2)
    experiments.run_setting2(n=50)
    assert len(built) == 4
    for design, before in built:
        assert array_bytes(design) == before


def test_setting2_holds_one_joint_buffer_per_worker_and_no_cross_gram_meanwhile(monkeypatch):
    # G and two (n + 2)^2 buffers that keep D'D in the triangle dpotrf never
    # touches, and the validation cross-Gram built only after the fits: a
    # separate D'D beside them held about 4.1 such units at once, and fresh
    # joint matrices per fit beside the cross-Gram about 5.15
    monkeypatch.setattr(hybrid_static, "worker_count", lambda: 2)
    n = 1000
    peak = oracles.peak_traced_bytes(experiments.run_setting2, n)
    assert peak < 3.5 * (n + 2) ** 2 * 8


def setting2_bytes(out: dict) -> list:
    """Every number of run_setting2's rows as bytes, fitted models included."""
    return [(family, key, np.asarray(value).tobytes()) if key != "model" else
            (family, key, value.weights.tobytes(), value.coeffs.tobytes())
            for family, rows in out.items() for row in rows for key, value in row.items()]


def test_setting2_rows_do_not_depend_on_the_worker_count(monkeypatch):
    # each pool worker reuses one buffer, which carries D'D from fit to fit:
    # no fit may see the triangle another fit wrote, whichever worker runs it
    rows = {}
    for workers in (1, 2, 4):
        monkeypatch.setattr(hybrid_static, "worker_count", lambda: workers)
        rows[workers] = setting2_bytes(experiments.run_setting2(n=35, seed=2))
    assert rows[2] == rows[1] and rows[4] == rows[1]


class PoolStarted(Exception):
    pass


def no_thread(*args, **kwargs):
    raise PoolStarted("a thread was started")


def test_koopman_and_control_sweeps_start_no_thread(monkeypatch):
    # each Koopman fit is one N x N solve and one m x m QP that hold the GIL:
    # the grid is fit in the calling thread, even where the pool has workers.
    # setting1 and setting3 fit their whole grid in one call; only setting2's
    # subspace fits keep the pool
    monkeypatch.setattr(hybrid_static, "worker_count", lambda: 2)
    monkeypatch.setattr(hybrid_static, "ThreadPoolExecutor", no_thread)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    grid = (1e-2, 1.0, 1e2)
    assert len(experiments.run_koopman(n=30, m=5, lambda_grid=grid)) == 3
    assert len(experiments.run_control(n=30, m=5, lambda_grid=grid, n_states=1,
                                       horizon=0.1)) == 3
    assert len(experiments.run_setting1(n=12, lambda_grid=grid)) == 3
    assert len(experiments.run_setting3(n=12, m=5, lambda_grid=grid)) == 3
    with pytest.raises(PoolStarted):
        experiments.run_setting2(n=12, lambda_grid=grid)


STATIC_FITS = ("fit_reference_krr", "fit_subspace", "fit_mixture", "rmse")


@pytest.mark.parametrize("run, expected", [
    (lambda grid: experiments.run_setting1(n=20, lambda_grid=grid),
     {"fit_reference_krr": 1, "rmse": 2}),
    (lambda grid: experiments.run_setting2(n=20, lambda_grid=grid),
     {"fit_reference_krr": 1, "fit_subspace": 1, "rmse": 4}),
    (lambda grid: experiments.run_setting3(n=20, m=5, lambda_grid=grid),
     {"fit_mixture": 1, "rmse": 2}),
], ids=["setting1", "setting2", "setting3"])
def test_static_sweep_fits_each_family_once_and_scores_each_design_once(monkeypatch, run,
                                                                        expected):
    # the grid is an array axis: one fit call per family that solves every
    # lambda, and one rmse call per design that scores every model
    grid = (1e-3, 1e-1, 1.0, 1e2)
    calls = {name: [] for name in STATIC_FITS}
    for name in STATIC_FITS:
        def record(*args, _fit=getattr(hybrid_static, name), _calls=calls[name], **kwargs):
            result = _fit(*args, **kwargs)
            _calls.append((args, result))
            return result
        monkeypatch.setattr(hybrid_static, name, record)
    out = run(grid)
    assert {name: len(made) for name, made in calls.items() if made} == expected
    for (models, design), scores in calls["rmse"]:
        assert len(models) == len(scores) == len(grid)
    designs = [id(design) for (_, design), _ in calls["rmse"]]
    assert len(set(designs)) == len(designs)
    for name in ("fit_reference_krr", "fit_subspace", "fit_mixture"):
        for args, models in calls[name]:  # the grid is each fit's last argument
            assert list(args[-1]) == list(grid) and len(models) == len(grid)
    rows = out["margules"] + out["reference"] if isinstance(out, dict) else out
    assert [row["lambda"] for row in rows] == list(grid) * (len(rows) // len(grid))


def test_koopman_rows_equal_one_lambda_fits_bit_for_bit():
    grid = (1e-4, 1e-1, 1e2)
    rows = experiments.run_koopman(n=30, m=5, lambda_grid=grid)
    assert [row["lambda_R"] for row in rows] == list(grid)
    for lam, row in zip(grid, rows):
        (alone,) = experiments.run_koopman(n=30, m=5, lambda_grid=(lam,))
        for key in ("lambda_R", "train_rmse", "val_rmse", "frob_R"):
            assert row[key].hex() == alone[key].hex()
        for block in ("weights", "residual", "closure_A", "input_beta", "input_gamma"):
            assert getattr(row["model"], block).tobytes() == \
                getattr(alone["model"], block).tobytes()

"""The size of the lambda pool, that its threads leave shared designs as
they were, the memory the setting (ii) sweep holds at once, and that the
Koopman sweeps fit in the calling thread."""

import os
import threading

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
    assert experiments.worker_count() == workers


@pytest.mark.parametrize("cores, workers", [(2, 2), (64, 4), (None, 1)])
def test_worker_count_without_affinity_counts_cores(monkeypatch, cores, workers):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert experiments.worker_count() == workers


def array_bytes(design) -> dict:
    """The bytes of each array a design holds: F, K, y, DtD, Dty and its factor's."""
    arrays = {name: getattr(design, name) for name in ("F", "K", "y", "DtD", "Dty")}
    if design.factor is not None:
        arrays.update(factor_W=design.factor.W, factor_mu=design.factor.mu)
    return {name: a.tobytes() for name, a in arrays.items() if a is not None}


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
    monkeypatch.setattr(experiments, "worker_count", lambda: 2)
    experiments.run_setting2(n=50)
    assert len(built) == 4 and any(design.DtD is not None for design, _ in built)
    for design, before in built:
        assert array_bytes(design) == before


def test_setting2_holds_one_joint_buffer_per_worker_and_no_cross_gram_meanwhile(monkeypatch):
    # two (n + 2)^2 buffers reused over the grid, and the validation
    # cross-Gram built only after the fits: fresh joint matrices per fit,
    # beside the cross-Gram, held about 5.15 such units at once
    monkeypatch.setattr(experiments, "worker_count", lambda: 2)
    n = 1000
    peak = oracles.peak_traced_bytes(experiments.run_setting2, n)
    assert peak < 4.5 * (n + 2) ** 2 * 8


class PoolStarted(Exception):
    pass


def no_thread(*args, **kwargs):
    raise PoolStarted("a thread was started")


def test_koopman_and_control_sweeps_start_no_thread(monkeypatch):
    # each Koopman fit is one N x N solve and one m x m QP that hold the GIL:
    # the grid is fit in the calling thread, even where the pool has workers
    monkeypatch.setattr(experiments, "worker_count", lambda: 2)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", no_thread)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    grid = (1e-2, 1.0, 1e2)
    assert len(experiments.run_koopman(n=30, m=5, lambda_grid=grid)) == 3
    assert len(experiments.run_control(n=30, m=5, lambda_grid=grid, n_states=1,
                                       horizon=0.1)) == 3
    # the static sweeps keep the pool
    with pytest.raises(PoolStarted):
        experiments.run_setting1(n=12, lambda_grid=grid)


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

"""The size of the lambda pool, and that its threads leave shared designs
as they were."""

import os

import pytest

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

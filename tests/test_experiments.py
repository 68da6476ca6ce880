"""The size of the lambda pool."""

import os

import pytest

from hybridkernel import experiments


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
